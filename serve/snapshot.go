package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"stsk"
	"stsk/internal/panicsafe"
)

// Plan snapshot persistence (Config.SnapshotDir): every built plan is
// serialized write-behind through stsk.WriteSnapshotFile, and an acquire
// miss warm-loads the file instead of re-running the seconds-scale
// ordering pipeline. The registry rides on the core snapshot format and
// stores its own state in the opaque extra sections:
//
//	Meta    JSON snapMeta — the registered PlanSpec (a reload refuses a
//	        snapshot written for a different spec) and the registry-level
//	        value version the snapshot corresponds to
//	AuxVals the latest UpdateValues array (input order), nil when the
//	        plan still carries the spec's own values
//
// Consistency contract: the (version, AuxVals) pair is read under the
// registry mutex, so it is always coherent; when AuxVals is present the
// loader re-applies it via Plan.Refactor, making the live values exactly
// the pair's values regardless of which epoch happened to be serialized.
// A writer re-checks (state, version) stability after the atomic rename
// and rewrites until the file matches the live entry, with snapMu
// serialising writers per entry so the file converges to the latest
// state. Corrupted, truncated, version-skewed, or mismatched snapshots
// are counted, removed, and fall back to a cold build — a bad snapshot
// is never worse than no snapshot.

// snapMeta is the registry's embedder metadata inside a plan snapshot.
type snapMeta struct {
	Spec    PlanSpec `json:"spec"`
	Version uint64   `json:"version"`
}

// snapshotPath is the on-disk location of one plan's snapshot; the name
// is path-escaped so arbitrary plan names cannot traverse out of the
// snapshot directory.
func (r *Registry) snapshotPath(name string) string {
	return filepath.Join(r.cfg.SnapshotDir, url.PathEscape(name)+".snap")
}

// snapshotAsync schedules a write-behind snapshot of the entry. The
// caller passes the state whose plan should be serialized, captured
// while it is (or just was) the entry's resident state — an eviction or
// registry Close landing before the goroutine runs must not lose the
// write, so the writer does not depend on e.st staying populated.
// Callers invoke this under r.mu after proving !r.closed, which orders
// the WaitGroup Add before Close's Wait — Close therefore drains every
// scheduled write before returning, making shutdown durable.
func (r *Registry) snapshotAsync(e *entry, st *state) {
	if r.cfg.SnapshotDir == "" || st == nil {
		return
	}
	r.shutdowns.Add(1)
	panicsafe.Go("serve.snapshot-write", func() {
		defer r.shutdowns.Done()
		r.writeSnapshot(e, st)
	})
}

// writeSnapshot persists the entry's plan, re-reading the live
// (version, values) pair under r.mu and rewriting until the renamed
// file reflects a stable pair. The captured st is only a fallback for
// when the entry's state was evicted or torn down meanwhile: its plan
// data stays readable after shutdown, and the recorded (version,
// AuxVals) pair — which the loader replays via Refactor — is what
// defines the snapshot's values, not whichever epoch the plan happened
// to have baked in. If the entry moves faster than the bounded
// rewrites, the writer spawned by the newer change is already queued on
// snapMu behind us and will observe the final state.
func (r *Registry) writeSnapshot(e *entry, st *state) {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	for attempt := 0; attempt < 4; attempt++ {
		r.mu.Lock()
		if e.st != nil {
			st = e.st // prefer the live state
		}
		ver, vals := e.version, e.vals
		r.mu.Unlock()
		if ver > 1 && vals == nil {
			// Updated past the spec's values but the array is gone — should
			// be impossible (UpdateValues always retains its copy); refuse to
			// write a file the loader would reject.
			r.met.SnapshotErrors.Add(1)
			return
		}
		meta, err := json.Marshal(snapMeta{Spec: e.spec, Version: ver})
		if err != nil {
			r.met.SnapshotErrors.Add(1)
			return
		}
		extra := stsk.SnapshotExtra{Meta: meta, AuxVals: vals}
		if err := st.plan.WriteSnapshotFile(r.snapshotPath(e.spec.Name), extra); err != nil {
			r.met.SnapshotErrors.Add(1)
			return
		}
		r.met.SnapshotWrites.Add(1)
		r.mu.Lock()
		stable := (e.st == st || e.st == nil) && e.version == ver
		r.mu.Unlock()
		if stable {
			return
		}
	}
}

// readSnapshotFile loads and validates one snapshot file for registry
// use: the core format checks (CRC, framing, plan invariants) run inside
// stsk.ReadSnapshotFile, then the registry metadata is decoded and the
// AuxVals value array — when present — is re-applied so the live values
// match the recorded version exactly.
func readSnapshotFile(path string) (*stsk.Plan, snapMeta, []float64, error) {
	plan, extra, err := stsk.ReadSnapshotFile(path)
	if err != nil {
		return nil, snapMeta{}, nil, err
	}
	var meta snapMeta
	if err := json.Unmarshal(extra.Meta, &meta); err != nil {
		return nil, snapMeta{}, nil, fmt.Errorf("%w: registry metadata: %v", stsk.ErrBadSnapshot, err)
	}
	if meta.Version == 0 || meta.Spec.Name == "" {
		return nil, snapMeta{}, nil, fmt.Errorf("%w: registry metadata incomplete", stsk.ErrBadSnapshot)
	}
	if meta.Version > 1 && extra.AuxVals == nil {
		// A version past 1 means UpdateValues landed, whose values MUST be
		// recorded — otherwise a post-reload eviction would rebuild the
		// spec's original matrix under the updated version number.
		return nil, snapMeta{}, nil, fmt.Errorf("%w: version %d snapshot lacks its value array", stsk.ErrBadSnapshot, meta.Version)
	}
	if extra.AuxVals != nil {
		if err := plan.Refactor(extra.AuxVals); err != nil {
			return nil, snapMeta{}, nil, fmt.Errorf("%w: recorded values rejected: %v", stsk.ErrBadSnapshot, err)
		}
	}
	return plan, meta, extra.AuxVals, nil
}

// discardSnapshot counts and removes a snapshot file that failed
// validation, so the cost of refusing it is paid once, not on every
// acquire miss.
func (r *Registry) discardSnapshot(path string) {
	r.met.SnapshotErrors.Add(1)
	_ = os.Remove(path)
}

// loadSnapshot attempts a warm load for an acquire miss. curVer and pend
// are the entry's version and retained values, frozen while the caller
// holds the entry's build slot. On success it returns the ready state
// and the snapshot's (version, values) for the caller to reconcile:
// a snapshot at or past curVer is adopted as-is; one lagging curVer has
// the newer pend values re-applied so the state matches the live entry.
func (r *Registry) loadSnapshot(spec PlanSpec, curVer uint64, pend []float64) (*state, uint64, []float64, bool) {
	path := r.snapshotPath(spec.Name)
	plan, meta, vals, err := readSnapshotFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			r.discardSnapshot(path)
		}
		return nil, 0, nil, false
	}
	if meta.Spec != spec {
		// Same name, different spec — a re-registration changed the plan's
		// definition since the snapshot was written. The file is not
		// corrupt, but it describes a different system; drop it.
		r.discardSnapshot(path)
		return nil, 0, nil, false
	}
	if meta.Version < curVer && pend != nil {
		if err := plan.Refactor(pend); err != nil {
			r.discardSnapshot(path)
			return nil, 0, nil, false
		}
	}
	return r.newState(plan), meta.Version, vals, true
}

// WarmStart pre-populates the registry from every snapshot in
// Config.SnapshotDir: each valid file registers its recorded spec and
// installs the reloaded plan as resident state at its recorded value
// version, within the byte budget (LRU eviction applies as usual, and
// evicted plans warm-load back on demand). Files that fail validation
// are counted, removed, and skipped; plans already registered are left
// alone. Returns the number of plans made resident.
//
// Call it once at boot, before serving: a warm-started replica answers
// its first solve in milliseconds instead of paying a cold ordering-
// pipeline build per plan.
func (r *Registry) WarmStart() (int, error) {
	if r.cfg.SnapshotDir == "" {
		return 0, nil
	}
	des, err := os.ReadDir(r.cfg.SnapshotDir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".snap") {
			continue
		}
		path := filepath.Join(r.cfg.SnapshotDir, de.Name())
		plan, meta, vals, err := readSnapshotFile(path)
		if err != nil {
			r.discardSnapshot(path)
			continue
		}
		if meta.Spec.validate() != nil || url.PathEscape(meta.Spec.Name)+".snap" != de.Name() {
			// The recorded spec must be well-formed and must own this file
			// name — a snapshot cannot install itself under another plan's
			// slot.
			r.discardSnapshot(path)
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return loaded, ErrDraining
		}
		if _, ok := r.entries[meta.Spec.Name]; ok {
			r.mu.Unlock()
			continue
		}
		r.mu.Unlock()

		// Build the servable state outside the mutex (solvers and
		// coalescers start here), then commit it if the name is still free.
		st := r.newState(plan)

		r.mu.Lock()
		if _, ok := r.entries[meta.Spec.Name]; ok || r.closed {
			closed := r.closed
			r.mu.Unlock()
			st.close()
			if closed {
				return loaded, ErrDraining
			}
			continue
		}
		r.clock++
		st.lastUse = r.clock
		e := &entry{spec: meta.Spec, st: st, version: meta.Version, vals: vals}
		r.entries[meta.Spec.Name] = e
		r.used += st.bytes
		r.met.SnapshotLoads.Add(1)
		r.evictLocked(e)
		r.mu.Unlock()
		loaded++
	}
	return loaded, nil
}
