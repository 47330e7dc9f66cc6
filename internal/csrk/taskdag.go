package csrk

import "fmt"

// TaskDAG is the dependency-driven execution plan over a Structure: the
// packs are carved into contiguous super-row chunks ("tasks"), and the
// barrier between consecutive packs is replaced by explicit edges from
// each task to the earlier tasks whose solution components it reads.
//
// Tasks are numbered in super-row order, which is topological: a task can
// only depend on rows of earlier packs (csrk.Validate guarantees no
// cross-super-row dependency inside a pack, and tasks never split a
// super-row), so every predecessor id is strictly smaller than the task's
// own id. The direct-dependency lists are transitively sparsified by the
// builder (internal/order.BuildTaskDAG): a task waits only on
// predecessors not already implied by its other predecessors, which is
// what makes point-to-point counter synchronisation cheap.
type TaskDAG struct {
	// TaskPtr: task t owns super-rows TaskPtr[t]:TaskPtr[t+1]. Spans the
	// structure's super-rows exactly, in order, never crossing a pack
	// boundary.
	TaskPtr []int32

	// RowPtr: task t owns rows RowPtr[t]:RowPtr[t+1] (the super-row range
	// resolved through Structure.SuperPtr, cached flat for the scheduler).
	RowPtr []int32

	// Pred/PredPtr: sparsified direct dependencies in CSR form — task t
	// waits on tasks Pred[PredPtr[t]:PredPtr[t+1]], all < t.
	Pred, PredPtr []int32

	// Succ/SuccPtr: the reverse adjacency — the tasks a finishing task t
	// must notify.
	Succ, SuccPtr []int32
}

// NumTasks returns the number of scheduling units.
func (d *TaskDAG) NumTasks() int { return len(d.TaskPtr) - 1 }

// NumEdges returns the number of sparsified direct dependencies.
func (d *TaskDAG) NumEdges() int { return len(d.Pred) }

// TaskRows returns the half-open row range of task t.
func (d *TaskDAG) TaskRows(t int) (lo, hi int) {
	return int(d.RowPtr[t]), int(d.RowPtr[t+1])
}

// Preds returns the sparsified direct predecessors of task t.
func (d *TaskDAG) Preds(t int) []int32 { return d.Pred[d.PredPtr[t]:d.PredPtr[t+1]] }

// Succs returns the direct successors of task t.
func (d *TaskDAG) Succs(t int) []int32 { return d.Succ[d.SuccPtr[t]:d.SuccPtr[t+1]] }

// CriticalPath returns the number of tasks on the longest dependency
// chain — the minimum number of sequential task steps any schedule of the
// DAG must take.
func (d *TaskDAG) CriticalPath() int {
	nt := d.NumTasks()
	depth := make([]int32, nt)
	longest := int32(0)
	for t := 0; t < nt; t++ {
		dep := int32(0)
		for _, p := range d.Preds(t) {
			if depth[p] > dep {
				dep = depth[p]
			}
		}
		depth[t] = dep + 1
		if depth[t] > longest {
			longest = depth[t]
		}
	}
	return int(longest)
}

// Parallelism returns tasks / critical path — the average number of tasks
// runnable concurrently under an ideal point-to-point schedule. A plain
// chain scores 1; the wider the DAG, the more workers a cooperative solve
// can keep busy.
func (d *TaskDAG) Parallelism() float64 {
	if d.NumTasks() == 0 {
		return 0
	}
	return float64(d.NumTasks()) / float64(d.CriticalPath())
}

// Validate checks the structural invariants of the DAG against its
// Structure: tasks tile the super-rows in order without crossing pack
// boundaries, row ranges agree with SuperPtr, every edge points strictly
// backward, and Succ is exactly the counting transpose of Pred.
func (d *TaskDAG) Validate(s *Structure) error {
	nt := d.NumTasks()
	if nt <= 0 {
		return fmt.Errorf("csrk: task dag has no tasks")
	}
	if d.TaskPtr[0] != 0 || int(d.TaskPtr[nt]) != s.NumSuperRows() {
		return fmt.Errorf("csrk: TaskPtr spans [%d,%d], want [0,%d]", d.TaskPtr[0], d.TaskPtr[nt], s.NumSuperRows())
	}
	if len(d.RowPtr) != nt+1 || len(d.PredPtr) != nt+1 || len(d.SuccPtr) != nt+1 {
		return fmt.Errorf("csrk: task dag pointer arrays disagree on task count")
	}
	pack := 0
	for t := 0; t < nt; t++ {
		slo, shi := int(d.TaskPtr[t]), int(d.TaskPtr[t+1])
		if shi <= slo {
			return fmt.Errorf("csrk: task %d empty", t)
		}
		if int(d.RowPtr[t]) != s.SuperPtr[slo] || int(d.RowPtr[t+1]) != s.SuperPtr[shi] {
			return fmt.Errorf("csrk: task %d row range [%d,%d) disagrees with SuperPtr", t, d.RowPtr[t], d.RowPtr[t+1])
		}
		for pack < s.NumPacks() && slo >= s.PackPtr[pack+1] {
			pack++
		}
		if shi > s.PackPtr[pack+1] {
			return fmt.Errorf("csrk: task %d crosses pack %d boundary", t, pack)
		}
		for _, p := range d.Preds(t) {
			if p < 0 || int(p) >= t {
				return fmt.Errorf("csrk: task %d has non-backward predecessor %d", t, p)
			}
		}
	}
	// Succ must be the exact transpose of Pred, in the order a counting
	// transpose lists it. Matching counts and memberships is not enough:
	// a successor listed twice in place of another would never release
	// the other, and every solve would wait on it forever.
	next := append([]int32(nil), d.SuccPtr[:nt]...)
	for t := 0; t < nt; t++ {
		for _, p := range d.Preds(t) {
			if next[p] >= d.SuccPtr[p+1] || d.Succ[next[p]] != int32(t) {
				return fmt.Errorf("csrk: successor lists are not the transpose of Pred at edge %d->%d", p, t)
			}
			next[p]++
		}
	}
	for t := 0; t < nt; t++ {
		if next[t] != d.SuccPtr[t+1] {
			return fmt.Errorf("csrk: task %d successor count %d, want %d", t, d.SuccPtr[t+1]-d.SuccPtr[t], next[t]-d.SuccPtr[t])
		}
	}
	return nil
}
