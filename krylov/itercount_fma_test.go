//go:build !amd64 || amd64.v3

package krylov

// exactIterCounts: this build may contract a*b+c into an FMA, which can
// move the pinned IC(0)-PCG iteration counts by rounding.
const exactIterCounts = false
