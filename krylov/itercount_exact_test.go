//go:build amd64 && !amd64.v3

package krylov

// exactIterCounts: baseline amd64 never contracts a*b+c into an FMA, so
// the pinned IC(0)-PCG iteration counts hold exactly.
const exactIterCounts = true
