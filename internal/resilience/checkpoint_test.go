package resilience_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellnpdp"
)

// The checkpoint is the pager's spill file and its index, written
// through the temp+rename helpers of this package. These tests pin what
// a caller of the public API sees of it; the file formats themselves are
// tested in internal/pager.

// chain builds a seeded chain instance of n points.
func chain[E cellnpdp.Elem](t *testing.T, n int) *cellnpdp.Table[E] {
	t.Helper()
	tbl, err := cellnpdp.NewTable[E](n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i+1 < n; i++ {
		if err := tbl.Set(i, i+1, E(1+rng.Float64()*99)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// serial solves chain(n) with the Serial engine, the bit-identity oracle.
func serial[E cellnpdp.Elem](t *testing.T, n int) *cellnpdp.Table[E] {
	t.Helper()
	ref := chain[E](t, n)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireSame fails unless got holds exactly ref's bits.
func requireSame[E cellnpdp.Elem](t *testing.T, ref, got *cellnpdp.Table[E], label string) {
	t.Helper()
	for i := 0; i < ref.Len(); i++ {
		want, _ := ref.Row(i)
		row, _ := got.Row(i)
		for k := range want {
			if want[k] != row[k] {
				t.Fatalf("%s: cell (%d,%d) is %v, want %v", label, i, i+k, row[k], want[k])
			}
		}
	}
}

// files returns the checkpoint's bytes: its spill file, then its index.
func files(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(path + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, idx...)
}

// solveOpts is the small whole-table checkpoint these tests keep: n=128
// in 16-cell tiles, 8 blocks a side, 36 tasks.
const n = 128

func solveOpts(path string) cellnpdp.Options {
	return cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 2, BlockBytes: 1024, CheckpointPath: path}
}

// TestCheckpointRoundTrip keeps a whole-table checkpoint of an in-memory
// solve (MemoryBudget 0): the solve runs on a durable pager holding
// every block, which writes each block once and is the size
// EstimateSolve predicts. Resuming the finished checkpoint restores
// every task and reproduces the serial table.
func TestCheckpointRoundTrip(t *testing.T) {
	ref := serial[float32](t, n)
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	got := chain[float32](t, n)
	res, err := cellnpdp.Solve(got, solveOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ref, got, "checkpointed solve")
	est, err := cellnpdp.EstimateSolve[float32](n, solveOpts(ck))
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 8 * 9 / 2
	if !res.Paged || res.PagerStats.SpilledBlocks != blocks || res.PagerStats.Commits == 0 {
		t.Fatalf("checkpointed solve: paged=%v, pager %+v; want every one of %d blocks written once and a commit",
			res.Paged, res.PagerStats, blocks)
	}
	if fi, err := os.Stat(ck); err != nil || fi.Size() != est.SpillFileBytes {
		t.Fatalf("checkpoint stat = %v, %v; want %d bytes (SpillFileBytes)", fi, err, est.SpillFileBytes)
	}
	resumed := chain[float32](t, n)
	opts := solveOpts(ck)
	opts.Resume = true
	res, err = cellnpdp.Solve(resumed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedTasks != blocks {
		t.Fatalf("resumed %d tasks, want all %d", res.ResumedTasks, blocks)
	}
	requireSame(t, ref, resumed, "resumed solve")
}

// TestCheckpointRejectsCorruption flips a bit in each committed final
// block of a finished checkpoint in turn. The page-in on resume rejects
// the block against its committed digest and recomputes its cone, so
// each resume still reproduces the serial table; a flipped header is
// refused outright.
func TestCheckpointRejectsCorruption(t *testing.T) {
	ref := serial[float32](t, n)
	dir := t.TempDir()
	ck := filepath.Join(dir, "solve.npsp")
	if _, err := cellnpdp.Solve(chain[float32](t, n), solveOpts(ck)); err != nil {
		t.Fatal(err)
	}
	clean := files(t, ck)
	idx, err := os.ReadFile(ck + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	data := clean[:len(clean)-len(idx)]
	// NPSP: a 28-byte header, then a pristine and a final slot per block,
	// each 16×16 float32 cells and a 4-byte CRC.
	const header, slot, blocks = 28, 16*16*4 + 4, 8 * 9 / 2
	if len(data) != header+2*blocks*slot {
		t.Fatalf("spill file is %d bytes, want %d", len(data), header+2*blocks*slot)
	}
	corrupt := func(off int) cellnpdp.Options {
		t.Helper()
		path := filepath.Join(t.TempDir(), "solve.npsp")
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".idx", idx, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := solveOpts(path)
		opts.Resume = true
		return opts
	}
	for id := 0; id < blocks; id++ {
		got := chain[float32](t, n)
		res, err := cellnpdp.Solve(got, corrupt(header+(blocks+id)*slot+slot/2))
		if err != nil {
			t.Fatalf("final block %d flipped: %v", id, err)
		}
		if res.CorruptBlocks == 0 {
			t.Fatalf("final block %d flipped, but the resume found no corrupt block", id)
		}
		requireSame(t, ref, got, "resume over a flipped final block")
	}
	if _, err := cellnpdp.Solve(chain[float32](t, n), corrupt(10)); err == nil {
		t.Fatal("a checkpoint with a flipped header resumed")
	}
}

// TestCheckpointWrongElemWidth: a float64 solve refuses to resume a
// float32 checkpoint rather than misreading it, and leaves it as it was.
func TestCheckpointWrongElemWidth(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	if _, err := cellnpdp.Solve(chain[float32](t, n), solveOpts(ck)); err != nil {
		t.Fatal(err)
	}
	before := files(t, ck)
	opts := solveOpts(ck)
	opts.Resume = true
	opts.BlockBytes = 2048 // the same 16-cell tile at 8 bytes a cell
	if _, err := cellnpdp.Solve(chain[float64](t, n), opts); err == nil {
		t.Fatal("a float64 solve resumed a float32 checkpoint")
	}
	if !bytes.Equal(files(t, ck), before) {
		t.Fatal("the refused resume changed the checkpoint")
	}
}

// TestCheckpointFileAtomic: the checkpoint's files are published by
// rename, so a finished solve leaves exactly the spill file and its
// index beside each other and no temp; a second solve over the same
// path replaces the checkpoint and is resumable in turn.
func TestCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "solve.npsp")
	for round := 0; round < 2; round++ {
		if _, err := cellnpdp.Solve(chain[float32](t, n), solveOpts(ck)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if strings.Join(names, " ") != "solve.npsp solve.npsp.idx" {
			t.Fatalf("round %d left %v beside the checkpoint, want the spill file and its index", round, names)
		}
	}
	opts := solveOpts(ck)
	opts.Resume = true
	got := chain[float32](t, n)
	if res, err := cellnpdp.Solve(got, opts); err != nil || res.ResumedTasks == 0 {
		t.Fatalf("resume of the replaced checkpoint: %+v, %v", res, err)
	}
	requireSame(t, serial[float32](t, n), got, "resumed replacement")
}

// TestCheckpointMetaValidation: a checkpoint records blocks, not tasks,
// so it fixes only n, the tile and the element width. A resume at
// another scheduling side, or on the Tiled engine, restores what it
// holds and reproduces the serial table; a commit period longer than the
// solve commits once, at the end.
func TestCheckpointMetaValidation(t *testing.T) {
	ref := serial[float32](t, n)
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	for _, every := range []int{1, 1000} {
		opts := solveOpts(ck)
		opts.CheckpointEvery = every
		res, err := cellnpdp.Solve(chain[float32](t, n), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Requests that arrive during a commit share the next one, so
		// CheckpointEvery 1 commits at least once; 1000 commits only at
		// the end.
		if commits := res.PagerStats.Commits; commits < 1 || (every == 1000 && commits != 1) {
			t.Fatalf("CheckpointEvery %d committed %d times", every, commits)
		}
	}
	for _, opts := range []cellnpdp.Options{
		{Engine: cellnpdp.Parallel, Workers: 2, BlockBytes: 1024, SchedSide: 2, CheckpointPath: ck, Resume: true},
		{Engine: cellnpdp.Tiled, BlockBytes: 1024, CheckpointPath: ck, Resume: true},
	} {
		got := chain[float32](t, n)
		res, err := cellnpdp.Solve(got, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.ResumedTasks == 0 {
			t.Fatalf("%+v restored no tasks", opts)
		}
		requireSame(t, ref, got, "resume at another schedule")
	}
}

// TestLoadCheckpointMissingFileTyped: a Resume against a missing file is
// an error that names the path and matches os.ErrNotExist, so a caller
// can tell "nothing to resume" from a corrupt checkpoint, and the solve
// creates nothing there. A present but corrupt file fails otherwise.
func TestLoadCheckpointMissingFileTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.npsp")
	opts := solveOpts(path)
	opts.Resume = true
	_, err := cellnpdp.Solve(chain[float32](t, n), opts)
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), path) {
		t.Fatalf("missing checkpoint: %v, want an os.ErrNotExist naming %s", err, path)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the refused resume created the checkpoint (stat: %v)", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.npsp")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts = solveOpts(bad)
	opts.Resume = true
	if _, err := cellnpdp.Solve(chain[float32](t, n), opts); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt checkpoint: %v, want a failure that is not os.ErrNotExist", err)
	}
}
