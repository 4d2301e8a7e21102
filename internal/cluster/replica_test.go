package cluster

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/tri"
)

// replicaFixture is a standby's replica over a 4×4-block table (tile 4,
// one task per block) whose input cells are all distinct.
type replicaFixture struct {
	t     *tri.Tiled[float32]
	input *tri.Tiled[float32]
	store *npdp.MemStore[float32]
	g     *sched.Graph
}

func newReplicaFixture(t *testing.T) *replicaFixture {
	t.Helper()
	tbl := tri.NewTiled[float32](16, 4)
	for bi := 0; bi < tbl.Blocks(); bi++ {
		for bj := bi; bj < tbl.Blocks(); bj++ {
			for k := range tbl.Block(bi, bj) {
				tbl.Block(bi, bj)[k] = float32(100*bi + 10*bj + k)
			}
		}
	}
	g, err := sched.NewGraph(tbl.Blocks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return &replicaFixture{t: tbl, input: tbl.Clone(), store: npdp.NewMemStore(tbl, true), g: g}
}

// task returns the ID of the task owning block (bi, bj).
func (f *replicaFixture) task(t *testing.T, bi, bj int) int {
	t.Helper()
	id, ok := f.g.TaskID(bi, bj)
	if !ok {
		t.Fatalf("no task at (%d,%d)", bi, bj)
	}
	return id
}

// computed is the stand-in result of block (bi, bj): cells unlike its
// input.
func computed(bi, bj int) []float32 {
	cells := make([]float32, 16)
	for k := range cells {
		cells[k] = -float32(1000 + 100*bi + 10*bj + k)
	}
	return cells
}

// doneFrame builds the rdone frame of the task owning block (bi, bj) the
// way a resync snapshot does, at epoch 7 and generation 3.
func (f *replicaFixture) doneFrame(t *testing.T, bi, bj int) []byte {
	t.Helper()
	frame := beginTaskFrame(nil, frameReplDone, 7, 3, f.task(t, bi, bj))
	return endTaskFrame(appendSealedBlock(frame, bi, bj, computed(bi, bj)), 1)
}

// record reads a record frame back as the standby's stream reader does.
func record(t *testing.T, frame []byte) (byte, taskMsg) {
	t.Helper()
	typ, payload, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := decodeTaskMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	return typ, msg
}

// apply folds frame into the replica and returns applyRecord's error.
func (f *replicaFixture) apply(t *testing.T, frame []byte, doneN *int) error {
	t.Helper()
	typ, msg := record(t, frame)
	return applyRecord(f.store, f.g, typ, msg, doneN)
}

// snapshot is the replica's whole state: every cell and final mark.
func (f *replicaFixture) snapshot() ([]float32, []bool) {
	var final []bool
	for bi := 0; bi < f.t.Blocks(); bi++ {
		for bj := bi; bj < f.t.Blocks(); bj++ {
			final = append(final, f.store.IsFinal(bi, bj))
		}
	}
	return cellsOf(f.t), final
}

// cellsOf is every cell of tbl, block by block.
func cellsOf(tbl *tri.Tiled[float32]) []float32 {
	var cells []float32
	for bi := 0; bi < tbl.Blocks(); bi++ {
		for bj := bi; bj < tbl.Blocks(); bj++ {
			cells = append(cells, tbl.Block(bi, bj)...)
		}
	}
	return cells
}

// reseal recomputes a mutated frame's CRC so the mutation reaches the
// decoder and the replica's checks instead of dying at the frame check.
func reseal(frame []byte) []byte {
	return endFrame(slices.Clone(frame[:len(frame)-frameTrailerLen]))
}

func TestDeltaRoundTrip(t *testing.T) {
	f := newReplicaFixture(t)
	id := f.task(t, 1, 3)
	for _, tc := range []struct {
		name  string
		frame []byte
		typ   byte
		want  taskMsg
	}{
		{"done", f.doneFrame(t, 1, 3), frameReplDone, taskMsg{Epoch: 7, Gen: 3, TaskID: id,
			Blocks: []wireBlock{{Bi: 1, Bj: 3, Raw: encodeCells(computed(1, 3))}}}},
		{"reset", newRecord(frameReplReset, 2, id).b, frameReplReset, taskMsg{Epoch: 2, TaskID: id}},
		{"syncbegin", newRecord(frameReplSync, 1, 0).b, frameReplSync, taskMsg{Epoch: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ, got := record(t, tc.frame)
			if typ != tc.typ || got.Epoch != tc.want.Epoch || got.Gen != tc.want.Gen || got.TaskID != tc.want.TaskID {
				t.Fatalf("header round trip: got kind %d %+v, want kind %d %+v", typ, got, tc.typ, tc.want)
			}
			if len(got.Blocks) != len(tc.want.Blocks) {
				t.Fatalf("got %d blocks, want %d", len(got.Blocks), len(tc.want.Blocks))
			}
			for i, b := range got.Blocks {
				w := tc.want.Blocks[i]
				if b.Bi != w.Bi || b.Bj != w.Bj || !bytes.Equal(b.Raw, w.Raw) {
					t.Fatalf("block %d: got (%d,%d), want (%d,%d), or its cells differ", i, b.Bi, b.Bj, w.Bi, w.Bj)
				}
				if want := resilience.BlockCRC(computed(w.Bi, w.Bj)); b.CRC != want {
					t.Fatalf("block %d sealed %08x, want %08x", i, b.CRC, want)
				}
			}
		})
	}
}

// TestDeltaResetBlocksCarryNoCells pins the blockless records: rreset
// and rsync are a task header and nothing else, and the replica refuses
// either one when it carries blocks.
func TestDeltaResetBlocksCarryNoCells(t *testing.T) {
	f := newReplicaFixture(t)
	for _, typ := range []byte{frameReplReset, frameReplSync} {
		frame := newRecord(typ, 1, 4).b
		if want := frameHeaderLen + taskHeaderLen + frameTrailerLen; len(frame) != want {
			t.Fatalf("kind %d record is %d bytes, want %d", typ, len(frame), want)
		}
		if _, msg := record(t, frame); len(msg.Blocks) != 0 {
			t.Fatalf("kind %d record decodes with %d blocks, want none", typ, len(msg.Blocks))
		}
		doneN := 0
		msg := taskMsg{TaskID: 4, Blocks: []wireBlock{{Bi: 1, Bj: 1, Raw: encodeCells(computed(1, 1))}}}
		if err := applyRecord(f.store, f.g, typ, msg, &doneN); err == nil || !strings.Contains(err.Error(), "want none") {
			t.Fatalf("kind %d record with a block: got %v, want a refusal", typ, err)
		}
	}
}

func TestDeltaRejectsBitFlips(t *testing.T) {
	f := newReplicaFixture(t)
	frame := f.doneFrame(t, 0, 2)
	// Flip one bit at every position: the frame CRC must catch each.
	for i := range frame {
		mut := slices.Clone(frame)
		mut[i] ^= 0x10
		if _, _, err := readFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d read cleanly", i)
		}
	}
}

func TestDeltaRejectsTruncation(t *testing.T) {
	f := newReplicaFixture(t)
	frame := f.doneFrame(t, 0, 2)
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := readFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes read cleanly", cut, len(frame))
		}
	}
	// The payload under a valid frame CRC: every cut and any trailing
	// byte must fail the decoder.
	payload := framePayload(frame)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeTaskMsg(payload[:cut]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded cleanly", cut, len(payload))
		}
	}
	if _, err := decodeTaskMsg(append(slices.Clone(payload), 0xAA)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

// TestDeltaRejectsBlockCountBomb patches nblocks to a huge value under a
// recomputed frame CRC and checks the count is bounded by payload
// capacity before any allocation happens.
func TestDeltaRejectsBlockCountBomb(t *testing.T) {
	f := newReplicaFixture(t)
	mut := slices.Clone(f.doneFrame(t, 0, 2))
	binary.LittleEndian.PutUint32(mut[frameHeaderLen+12:], 1<<30)
	_, payload, err := readFrame(bytes.NewReader(reseal(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeTaskMsg(payload); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("nblocks bomb: got %v, want block-count bound error", err)
	}
}

// TestDeltaRejectsStructuralLies covers records that pass the frame CRC
// but lie about their structure: each is rejected, by the decoder or by
// the replica's checks, and leaves the replica exactly as it was.
func TestDeltaRejectsStructuralLies(t *testing.T) {
	f := newReplicaFixture(t)
	id := f.task(t, 0, 2)
	// Block offsets within a one-block rdone frame.
	const blk = frameHeaderLen + taskHeaderLen
	for _, tc := range []struct {
		name, want string
		frame      func() []byte
	}{
		{"block-overrun", "truncated", func() []byte {
			// The block claims more cell bytes than the frame holds.
			mut := slices.Clone(f.doneFrame(t, 0, 2))
			binary.LittleEndian.PutUint32(mut[blk+12:], 1<<20)
			return reseal(mut)
		}},
		{"block-seal", "seal mismatch", func() []byte {
			mut := slices.Clone(f.doneFrame(t, 0, 2))
			binary.LittleEndian.PutUint32(mut[blk+8:], 0xDEADBEEF)
			return reseal(mut)
		}},
		{"block-set", "malformed", func() []byte {
			// Another task's block under this task's ID.
			mut := slices.Clone(f.doneFrame(t, 0, 2))
			binary.LittleEndian.PutUint32(mut[blk+4:], 3)
			return reseal(mut)
		}},
		{"block-bytes", "malformed", func() []byte {
			// Half a block, sealed over the bytes it carries.
			frame := beginTaskFrame(nil, frameReplDone, 7, 3, id)
			return endTaskFrame(appendSealedBlock(frame, 0, 2, computed(0, 2)[:8]), 1)
		}},
		{"block-count", "carries 0 blocks", func() []byte {
			return endTaskFrame(beginTaskFrame(nil, frameReplDone, 7, 3, id), 0)
		}},
		{"task-range", "unknown task", func() []byte {
			mut := slices.Clone(f.doneFrame(t, 0, 2))
			binary.LittleEndian.PutUint32(mut[frameHeaderLen+8:], uint32(len(f.g.Tasks)))
			return reseal(mut)
		}},
		{"kind", "want none", func() []byte {
			// A blockless kind carrying blocks.
			mut := slices.Clone(f.doneFrame(t, 0, 2))
			mut[0] = frameReplReset
			return reseal(mut)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells, final := f.snapshot()
			doneN := 0
			typ, payload, err := readFrame(bytes.NewReader(tc.frame()))
			if err != nil {
				t.Fatal(err)
			}
			var msg taskMsg
			if msg, err = decodeTaskMsg(payload); err == nil {
				err = applyRecord(f.store, f.g, typ, msg, &doneN)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
			gotCells, gotFinal := f.snapshot()
			if doneN != 0 || !slices.Equal(gotCells, cells) || !slices.Equal(gotFinal, final) {
				t.Fatal("a rejected record changed the replica")
			}
		})
	}
}

// TestCheckpointFold exercises the standby's fold: rdone installs a
// task's blocks final, rreset restores their input bytes, and rsync
// clears every task.
func TestCheckpointFold(t *testing.T) {
	f := newReplicaFixture(t)
	doneN := 0
	for _, mb := range [][2]int{{0, 2}, {1, 1}} {
		if err := f.apply(t, f.doneFrame(t, mb[0], mb[1]), &doneN); err != nil {
			t.Fatal(err)
		}
		if !f.store.IsFinal(mb[0], mb[1]) || !slices.Equal(f.t.Block(mb[0], mb[1]), computed(mb[0], mb[1])) {
			t.Fatalf("rdone did not install block (%d,%d) final", mb[0], mb[1])
		}
	}
	if doneN != 2 {
		t.Fatalf("replicated %d tasks, want 2", doneN)
	}
	// Installing a task again does not count it twice.
	if err := f.apply(t, f.doneFrame(t, 1, 1), &doneN); err != nil || doneN != 2 {
		t.Fatalf("re-installed rdone: doneN=%d, err %v; want 2, nil", doneN, err)
	}

	// rreset restores the input bytes, not the replicated ones.
	if err := f.apply(t, newRecord(frameReplReset, 7, f.task(t, 0, 2)).b, &doneN); err != nil {
		t.Fatal(err)
	}
	if f.store.IsFinal(0, 2) || !slices.Equal(f.t.Block(0, 2), f.input.Block(0, 2)) || doneN != 1 {
		t.Fatalf("after rreset: final=%v doneN=%d, or the block is not its input", f.store.IsFinal(0, 2), doneN)
	}
	if !f.store.IsFinal(1, 1) {
		t.Fatal("rreset of one task demoted another")
	}

	// rsync clears everything.
	if err := f.apply(t, newRecord(frameReplSync, 7, 0).b, &doneN); err != nil {
		t.Fatal(err)
	}
	cells, final := f.snapshot()
	if doneN != 0 || slices.Contains(final, true) || !slices.Equal(cells, cellsOf(f.input)) {
		t.Fatalf("after rsync: doneN=%d, or a block is still final or not its input", doneN)
	}
}

// FuzzTaskMsg drives the one task-message decoder — every dispatch,
// result and replication record from the network passes through it —
// with arbitrary payloads: it must never panic, and any payload it
// accepts must re-encode to the same bytes.
func FuzzTaskMsg(f *testing.F) {
	co := whiteboxCoordinatorOf(f, testTable(f), 1)
	sess := pipeSession(f, co, 0)
	id, _ := co.g.TaskID(0, 4)
	co.dispatch(sess, id)
	dispatch := <-sess.out
	f.Add(bytes.Clone(dispatch.payload))
	putFrame(dispatch.buf)
	for _, fb := range co.snapshotRecords() {
		f.Add(bytes.Clone(framePayload(fb.b)))
		putFrame(fb)
	}
	rdone := beginTaskFrame(nil, frameReplDone, 7, 3, 5)
	f.Add(framePayload(endTaskFrame(appendSealedBlock(rdone, 1, 2, computed(1, 2)), 1)))
	f.Add(framePayload(newRecord(frameReplReset, 7, 5).b))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		msg, err := decodeTaskMsg(p)
		if err != nil {
			return // rejected: fine, as long as it never panics
		}
		if back := msg.encode(); !bytes.Equal(back, p) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", back, p)
		}
	})
}
