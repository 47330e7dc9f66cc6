package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stsk"
	"stsk/internal/snapshot"
)

// waitSnapshotWrites polls until the registry has persisted at least n
// write-behind snapshots (they run on background goroutines).
func waitSnapshotWrites(t *testing.T, reg *Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Metrics().SnapshotWrites.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot writes stuck at %d, want >= %d", reg.Metrics().SnapshotWrites.Load(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotWarmStart is the durability round trip: a registry builds
// and updates a plan, a second registry on the same snapshot directory
// warm-starts it — no cold build, version preserved, and solves bitwise
// identical to a plan refactored with the updated values.
func TestSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	reg1 := NewRegistry(Config{SnapshotDir: dir})
	if _, err := reg1.Register(PlanSpec{Name: "g", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	vals := scaledValues(t, "grid3d", 900, 3)
	if _, err := reg1.UpdateValues("g", vals, 0); err != nil {
		t.Fatal(err)
	}
	// Close drains the write-behind goroutines, so the directory is
	// final afterwards.
	reg1.Close()

	reg2 := NewRegistry(Config{SnapshotDir: dir})
	defer reg2.Close()
	loaded, err := reg2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("WarmStart loaded %d plans, want 1", loaded)
	}
	snap := reg2.Metrics().Snapshot()
	if snap.PlanBuilds != 0 || snap.SnapshotLoads != 1 {
		t.Fatalf("warm start: PlanBuilds=%d SnapshotLoads=%d, want 0/1", snap.PlanBuilds, snap.SnapshotLoads)
	}
	var found bool
	for _, pi := range reg2.List() {
		if pi.Spec.Name == "g" {
			found = true
			if pi.Version != 2 || !pi.Loaded {
				t.Fatalf("warm-started plan: %+v, want version 2, loaded", pi)
			}
		}
	}
	if !found {
		t.Fatal("warm start did not register the snapshotted plan")
	}

	ref := refPlan(t, "grid3d", 900, stsk.STS3)
	if err := ref.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 9)
	got, err := reg2.Solve(context.Background(), "g", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, got, want, "warm-started solve")
	if pb := reg2.Metrics().PlanBuilds.Load(); pb != 0 {
		t.Fatalf("solve after warm start triggered %d cold builds", pb)
	}
}

// TestSnapshotEvictionWarmReload checks the acquire-miss path: an
// evicted plan comes back from its snapshot, not a cold rebuild.
func TestSnapshotEvictionWarmReload(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{SnapshotDir: dir, BudgetBytes: 1 << 19}) // one resident plan
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(PlanSpec{Name: "b", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	waitSnapshotWrites(t, reg, 2)
	for _, pi := range reg.List() {
		if pi.Spec.Name == "a" && pi.Loaded {
			t.Skip("budget did not evict; environment-dependent estimate")
		}
	}

	ref := refPlan(t, "grid3d", 900, stsk.STS3)
	b := manufacturedRHS(ref, 4)
	got, err := reg.Solve(context.Background(), "a", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, got, want, "warm-reloaded solve")

	snap := reg.Metrics().Snapshot()
	if snap.PlanBuilds != 2 {
		t.Fatalf("PlanBuilds=%d after warm reload, want 2 (the original cold builds)", snap.PlanBuilds)
	}
	if snap.SnapshotLoads < 1 {
		t.Fatalf("SnapshotLoads=%d, want >= 1", snap.SnapshotLoads)
	}
}

// TestSnapshotCorruptFallsBack plants unusable files where the snapshot
// should be — garbage, and two files older builds wrote for the spec
// {g, grid2d, 100, sts3}: testdata/format1.snap, whose format carried
// the task DAG, and testdata/format2.snap, whose format carried the
// source matrix's pattern. The loader refuses each with ErrBadSnapshot
// and the codec's sentinel; the registry must count and remove it, then
// build cold and write a current-format file in its place — a bad
// snapshot is never worse than no snapshot.
func TestSnapshotCorruptFallsBack(t *testing.T) {
	old := make(map[string][]byte)
	for _, name := range []string{"format1.snap", "format2.snap"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		old[name] = raw
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"garbage", []byte("STSKSNAPgarbage-not-a-snapshot"), snapshot.ErrInvalid},
		{"format 1", old["format1.snap"], snapshot.ErrVersion},
		{"format 2", old["format2.snap"], snapshot.ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "g.snap")
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := stsk.ReadSnapshotFile(path); !errors.Is(err, stsk.ErrBadSnapshot) || !errors.Is(err, tc.want) {
				t.Fatalf("ReadSnapshotFile: err = %v, want ErrBadSnapshot wrapping %v", err, tc.want)
			}
			reg := NewRegistry(Config{SnapshotDir: dir})
			defer reg.Close()
			// WarmStart refuses it.
			if loaded, err := reg.WarmStart(); err != nil || loaded != 0 {
				t.Fatalf("WarmStart: loaded=%d err=%v", loaded, err)
			}
			if n := reg.Metrics().SnapshotErrors.Load(); n != 1 {
				t.Fatalf("SnapshotErrors=%d, want 1", n)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("refused snapshot not removed")
			}

			// Registration proceeds cold and rewrites a valid file.
			if _, err := reg.Register(PlanSpec{Name: "g", Class: "grid2d", N: 100, Method: "sts3"}); err != nil {
				t.Fatal(err)
			}
			if pb := reg.Metrics().PlanBuilds.Load(); pb != 1 {
				t.Fatalf("PlanBuilds=%d, want 1", pb)
			}
			waitSnapshotWrites(t, reg, 1)
			if _, _, err := stsk.ReadSnapshotFile(path); err != nil {
				t.Fatalf("rewritten snapshot invalid: %v", err)
			}
		})
	}
}

// TestSnapshotSpecMismatchDiscarded re-registers a name with a different
// spec: the old snapshot describes a different system and must be
// discarded, not loaded.
func TestSnapshotSpecMismatchDiscarded(t *testing.T) {
	dir := t.TempDir()
	reg1 := NewRegistry(Config{SnapshotDir: dir})
	if _, err := reg1.Register(PlanSpec{Name: "g", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	reg1.Close()

	reg2 := NewRegistry(Config{SnapshotDir: dir})
	defer reg2.Close()
	if _, err := reg2.Register(PlanSpec{Name: "g", Class: "grid2d", N: 1600, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	snap := reg2.Metrics().Snapshot()
	if snap.PlanBuilds != 1 || snap.SnapshotLoads != 0 {
		t.Fatalf("PlanBuilds=%d SnapshotLoads=%d, want 1/0 (mismatched snapshot must not load)", snap.PlanBuilds, snap.SnapshotLoads)
	}
	if snap.SnapshotErrors < 1 {
		t.Fatal("mismatched snapshot not counted as discarded")
	}
}

// TestWarmStartRefusesRenamedSnapshot moves one plan's snapshot under
// another name: the file-name/spec binding check must refuse it, so a
// snapshot cannot install itself into another plan's slot.
func TestWarmStartRefusesRenamedSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg1 := NewRegistry(Config{SnapshotDir: dir})
	if _, err := reg1.Register(PlanSpec{Name: "a", Class: "grid3d", N: 900, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	reg1.Close()
	if err := os.Rename(filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry(Config{SnapshotDir: dir})
	defer reg2.Close()
	loaded, err := reg2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 {
		t.Fatalf("renamed snapshot loaded %d plans, want 0", loaded)
	}
	if reg2.Metrics().SnapshotErrors.Load() < 1 {
		t.Fatal("renamed snapshot not counted as discarded")
	}
}
