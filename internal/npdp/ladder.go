package npdp

import (
	"errors"
	"fmt"
	"sync"

	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
)

// DefaultHealAttempts bounds how many times in a row one memory block
// may fail verification and be cone-healed before the pristine-restart
// rung, when healing is enabled without an explicit budget. Each heal
// round re-rolls the fault injector at a fresh attempt base, so under
// sustained injection a block fails consecutively with probability
// rate^k; a generous bound lets rates like 5% converge while still
// guaranteeing termination.
const DefaultHealAttempts = 32

// DefaultCheckpointEvery is the commit period, in completed tasks, of a
// checkpoint whose CheckpointEvery is 0 — the executor's and the cluster
// coordinator's alike.
const DefaultCheckpointEvery = 16

// Ladder is the recovery state every engine shares — the in-process
// executor over any BlockStore, the Cell engine's post-DES recovery and
// the cluster coordinator. It owns the block seal table and the
// escalation rule, which all three climb through one post-run Step:
//
//	detect   a seal audit mismatch, or a *pager.ErrPageCorrupt on a
//	         final block (Step finds either, or the caller hands it in)
//	heal     demote and unseal the poisoned cone (sched.Graph.Cone of the
//	         bad blocks' tasks); only the cone is recomputed
//	restart  once a block has failed HealAttempts times in a row, demote
//	         everything once and recompute from pristine
//	fail     *resilience.CorruptionError
//
// The budget is per block and counts only consecutive failures: a block
// that verifies clean again (Clean) starts over, and fresh corruption on
// a previously clean block never exhausts it.
//
// Seal, Audit, Clean and Commit are safe for concurrent use (online
// audits and periodic commits run beside the pool); SealFinals and Step
// run between pool runs.
type Ladder[E semiring.Elem] struct {
	store    BlockStore[E]
	graph    *sched.Graph
	seals    *resilience.SealTable
	stats    *resilience.HealStats
	attempts int
	seal     bool // sealing is on: Step audits after each run
	heal     bool // an audit-found mismatch may heal
	logf     func(format string, args ...any)

	mu        sync.Mutex // guards fails; serializes audits, heals and commits
	fails     map[int]int
	restarted bool
}

// NewLadder builds the recovery state for a solve of graph g over s.
// seal turns sealing on, so Step audits after each run; opts supplies
// Heal, HealAttempts, HealStats and Logf.
func NewLadder[E semiring.Elem](s BlockStore[E], g *sched.Graph, seal bool, opts ParallelOptions) *Ladder[E] {
	attempts, stats := opts.HealAttempts, opts.HealStats
	if attempts <= 0 {
		attempts = DefaultHealAttempts
	}
	if stats == nil {
		stats = &resilience.HealStats{}
	}
	m := s.Blocks()
	return &Ladder[E]{
		store:    s,
		graph:    g,
		seals:    resilience.NewSealTable(m * (m + 1) / 2),
		stats:    stats,
		attempts: attempts,
		seal:     seal,
		heal:     opts.Heal,
		logf:     opts.Logf,
		fails:    make(map[int]int),
	}
}

func (l *Ladder[E]) id(bi, bj int) int { return blockID(l.store.Blocks(), bi, bj) }

// Seal records crc as block (bi, bj)'s seal. The block's bytes must be
// published (Complete) before the seal, so an auditor that sees the seal
// reads immutable bytes.
func (l *Ladder[E]) Seal(bi, bj int, crc uint32) { l.seals.Seal(l.id(bi, bj), crc) }

// Clean records that block (bi, bj) verified, resetting its budget.
func (l *Ladder[E]) Clean(bi, bj int) {
	l.mu.Lock()
	delete(l.fails, l.id(bi, bj))
	l.mu.Unlock()
}

// SealFinals seals every final block from its current content, so
// audits cover blocks a resume restored. A final page that reads back
// corrupt stays unsealed: the run that pages it in detects and heals it.
func (l *Ladder[E]) SealFinals() error {
	m := l.store.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			if !l.store.IsFinal(bi, bj) {
				continue
			}
			cells, err := l.store.Acquire(bi, bj)
			var pe *pager.ErrPageCorrupt
			if errors.As(err, &pe) && !pe.Pristine {
				continue
			}
			if err != nil {
				return err
			}
			l.Seal(bi, bj, resilience.BlockCRC(cells))
			l.store.Release(bi, bj)
		}
	}
	return nil
}

// Audit re-digests every sealed block and returns those whose content
// no longer matches the seal; clean blocks reset their budget. A block
// that cannot be paged back in stops the audit with the store's error
// (a corrupt final page is itself a detection).
func (l *Ladder[E]) Audit() ([][2]int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Audits++
	var bad [][2]int
	m := l.store.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			id := l.id(bi, bj)
			want, ok := l.seals.Sealed(id)
			if !ok {
				continue
			}
			cells, err := l.store.Acquire(bi, bj)
			if err != nil {
				return bad, err
			}
			if resilience.BlockCRC(cells) != want {
				bad = append(bad, [2]int{bi, bj})
			} else {
				delete(l.fails, id)
			}
			l.store.Release(bi, bj)
		}
	}
	return bad, nil
}

// taskOf maps a memory block to the task that computes it.
func (l *Ladder[E]) taskOf(bi, bj int) int {
	g := l.graph.SchedSide
	id, _ := l.graph.TaskID(bi/g, bj/g)
	return id
}

// tasksOf returns the distinct tasks computing the given blocks.
func (l *Ladder[E]) tasksOf(bad [][2]int) []int {
	seen := make(map[int]bool)
	var ids []int
	for _, b := range bad {
		if id := l.taskOf(b[0], b[1]); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// escalate climbs one rung for blocks that failed verification. healable
// says whether this detection may be recovered at all: Heal gates seal
// mismatches, while a corrupt final page always heals. It demotes and
// unseals the tasks to recompute and returns their IDs (restart reports
// the pristine-restart rung), or returns the typed CorruptionError once
// the ladder is exhausted.
func (l *Ladder[E]) escalate(bad [][2]int, healable bool) (ids []int, restart bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.CorruptBlocks += len(bad)
	worst := 0
	for _, b := range bad {
		worst = max(worst, l.fails[l.id(b[0], b[1])])
	}
	if !healable || worst >= l.attempts {
		if !healable || l.restarted {
			return nil, false, &resilience.CorruptionError{Blocks: bad, TaskIDs: l.tasksOf(bad), Healed: worst}
		}
		l.restarted = true
		l.fails = make(map[int]int)
		ids = make([]int, len(l.graph.Tasks))
		for i := range ids {
			ids[i] = i
		}
		l.demote(ids)
		l.stats.CheckpointFallback = true
		l.stats.RecomputedTasks += len(ids)
		return ids, true, nil
	}
	for _, b := range bad {
		l.fails[l.id(b[0], b[1])]++
	}
	ids = l.graph.Cone(l.tasksOf(bad))
	l.demote(ids)
	l.stats.HealRounds++
	l.stats.RecomputedTasks += len(ids)
	return ids, false, nil
}

// Step is the ladder's post-run step. err is the run's outcome and bad
// the blocks the run itself found corrupt that may heal (a cluster's
// wire seal mismatches under Heal). With sealing on, a clean run — or
// one an online audit aborted — is audited; a run that detected nothing
// runs finalize (nil allowed), and a corrupt final page it reports is
// one more detection. Any detection climbs one rung (escalate). Step
// returns the demoted tasks to run again, or nil and the error to
// return: nil once the solve is done. A solve with sealing on can fail,
// but never returns silently wrong.
func (l *Ladder[E]) Step(err error, bad [][2]int, finalize func() error) ([]int, error) {
	healable := true
	var ce *resilience.CorruptionError
	if l.seal && (err == nil || errors.As(err, &ce)) {
		found, aerr := l.Audit()
		switch {
		case aerr != nil:
			err = aerr
		case len(found) > 0:
			bad, err, healable = append(bad, found...), nil, l.heal
		}
	}
	if err == nil && len(bad) == 0 && finalize != nil {
		err = finalize()
	}
	var pe *pager.ErrPageCorrupt
	if errors.As(err, &pe) {
		if pe.Pristine {
			// No earlier version to fall back to: the input itself is gone.
			return nil, fmt.Errorf("npdp: paged solve unrecoverable: %w", pe)
		}
		bad, err = append(bad, [2]int{pe.Bi, pe.Bj}), nil
	}
	if err != nil || len(bad) == 0 {
		return nil, err // success, cancellation, spill-space exhaustion, task failure
	}
	ids, restart, err := l.escalate(bad, healable)
	if err != nil {
		return nil, err
	}
	if l.logf != nil {
		rung := "heal round: recomputing the poisoned cone of"
		if restart {
			rung = "heal budget exhausted: pristine restart of all"
		}
		l.logf("npdp: %d corrupt block(s) (first (%d,%d)); %s %d tasks", len(bad), bad[0][0], bad[0][1], rung, len(ids))
	}
	return ids, nil
}

// Commit makes the store — a pager, durable when the solve keeps a
// checkpoint — hold a checkpoint of the verified part of the solve. It
// writes the final blocks that are not on disk yet (Pager.Flush), then
// commits only the blocks of tasks outside the Graph.Cone of every
// complete task with a block that is not on disk or, with sealing on,
// is unsealed or fails its seal, so a resume never trusts a corrupt
// block or a value computed from one. A resident block is re-digested
// here; a block only on disk is checked by its page-in on resume, which
// heals its cone. It is the one checkpoint writer: the executor's
// periodic and final commits and the cluster coordinator's all go
// through it. It holds the ladder's mutex, so no heal demotes a block
// between its check and its record; it may run while a pool computes.
func (l *Ladder[E]) Commit() error {
	p, ok := l.store.(*pager.Pager[E])
	if !ok {
		return fmt.Errorf("npdp: a checkpoint commit needs a pager store")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p.Flush()
	done := Completed(l.store, l.graph)
	var bad []int
	for id, d := range done {
		if d && !l.committable(p, id) {
			bad = append(bad, id)
		}
	}
	for _, id := range l.graph.Cone(bad) {
		done[id] = false
	}
	var blocks [][2]int
	for id, d := range done {
		if d {
			blocks = append(blocks, l.graph.Tasks[id].MemoryBlockOrder()...)
		}
	}
	return p.Commit(blocks)
}

// committable reports whether every block of task id is on disk and,
// with sealing on, sealed and — when resident — still digesting to its
// seal.
func (l *Ladder[E]) committable(p *pager.Pager[E], id int) bool {
	for _, mb := range l.graph.Tasks[id].MemoryBlockOrder() {
		if !p.OnDisk(mb[0], mb[1]) {
			return false
		}
		if !l.seal {
			continue
		}
		want, ok := l.seals.Sealed(l.id(mb[0], mb[1]))
		if !ok {
			return false
		}
		if cells, ok := p.AcquireResident(mb[0], mb[1]); ok {
			got := resilience.BlockCRC(cells)
			p.Release(mb[0], mb[1])
			if got != want {
				return false
			}
		}
	}
	return true
}

// demote reverts every block of the given tasks to pristine, unsealed.
func (l *Ladder[E]) demote(ids []int) {
	for _, id := range ids {
		for _, mb := range l.graph.Tasks[id].MemoryBlockOrder() {
			l.store.Demote(mb[0], mb[1])
			l.seals.Unseal(l.id(mb[0], mb[1]))
		}
	}
}
