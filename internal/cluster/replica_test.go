package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
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

// fixtureJob is the welcome a primary of the replicaFixture geometry
// sends in its replication hello at epoch.
func fixtureJob(epoch uint32) welcomeMsg {
	return welcomeMsg{ElemBytes: 4, N: 16, Tile: 4, SchedSide: 1, Shards: 1,
		HeartbeatMS: 50, DeadlineMS: 2000, Epoch: epoch}
}

// followerProbe runs RunStandby over a replicaFixture-sized table on a
// loopback listener and lets a test play the primary against it.
type followerProbe struct {
	f      *replicaFixture
	tbl    *tri.Tiled[float32] // the standby's table
	addr   string
	stats  StandbyStats
	deltas chan int // OnDelta's counts
	cancel context.CancelFunc
	errc   chan error
}

func startFollowerProbe(t *testing.T, lease time.Duration, onTakeover func(uint32)) *followerProbe {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := newReplicaFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	p := &followerProbe{f: f, tbl: f.input.Clone(), addr: ln.Addr().String(),
		deltas: make(chan int, 64), cancel: cancel, errc: make(chan error, 1)}
	opts := StandbyOptions{
		Options:      testOptions(nil),
		LeaseAfter:   lease,
		OnDelta:      func(done int) { p.deltas <- done },
		OnTakeover:   onTakeover,
		StandbyStats: &p.stats,
	}
	opts.Logf = t.Logf
	go func() { p.errc <- RunStandby(ctx, ln, p.tbl, opts) }()
	t.Cleanup(func() {
		cancel()
		<-p.errc
	})
	return p
}

// dial opens a connection to the standby, closed when the test ends.
func (p *followerProbe) dial(t *testing.T) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// sendReplHello sends a replication hello at epoch for job on c.
func sendReplHello(t *testing.T, c net.Conn, epoch uint32, job welcomeMsg) {
	t.Helper()
	if err := writeFrame(c, frameReplHello, append(helloMsg{Epoch: epoch, Name: "fake"}.encode(), job.encode()...)); err != nil {
		t.Fatal(err)
	}
}

// adopt opens a replication stream at epoch that the standby adopts.
func (p *followerProbe) adopt(t *testing.T, epoch uint32) net.Conn {
	t.Helper()
	c := p.dial(t)
	sendReplHello(t, c, epoch, fixtureJob(epoch))
	if got := expectEpoch(t, c, frameReplWelcome); got != epoch {
		t.Fatalf("rwelcome carries epoch %d, want %d", got, epoch)
	}
	return c
}

// send writes whole frames to c.
func send(t *testing.T, c net.Conn, frames ...[]byte) {
	t.Helper()
	for _, fr := range frames {
		if _, err := c.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
}

// expectFrame reads one frame from c and fails unless it is of kind typ.
func expectFrame(t *testing.T, c net.Conn, typ byte) []byte {
	t.Helper()
	got, payload, err := readFrame(c)
	if err != nil || got != typ {
		t.Fatalf("reply = (kind %d, %v), want kind %d", got, err, typ)
	}
	return payload
}

// expectEpoch reads a frame of kind typ and returns the epoch it carries.
func expectEpoch(t *testing.T, c net.Conn, typ byte) uint32 {
	t.Helper()
	ep, err := decodeEpoch(expectFrame(t, c, typ))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// expectClosed fails unless the standby closes c with nothing more to say.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	if typ, _, err := readFrame(c); err == nil {
		t.Fatalf("stream still open: read a frame of kind %d", typ)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("stream not closed by the standby: %v", err)
	}
}

// delta waits for the standby to apply a record and returns its count.
func (p *followerProbe) delta(t *testing.T) int {
	t.Helper()
	select {
	case n := <-p.deltas:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("the standby applied no record within 10s")
		return 0
	}
}

// result waits for RunStandby to return.
func (p *followerProbe) result(t *testing.T) error {
	t.Helper()
	select {
	case err := <-p.errc:
		p.errc <- err // for the cleanup
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("RunStandby did not return within 10s")
		return nil
	}
}

// stop cancels the standby and checks it returned the cancellation.
func (p *followerProbe) stop(t *testing.T) {
	t.Helper()
	p.cancel()
	if err := p.result(t); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled standby returned %v", err)
	}
}

// holds fails unless the standby's table is the fixture's input with
// the blocks in done at their computed cells.
func (p *followerProbe) holds(t *testing.T, done ...[2]int) {
	t.Helper()
	want := p.f.input.Clone()
	for _, mb := range done {
		copy(want.Block(mb[0], mb[1]), computed(mb[0], mb[1]))
	}
	if !slices.Equal(cellsOf(p.tbl), cellsOf(want)) {
		t.Fatalf("standby table is not the input with blocks %v computed", done)
	}
}

// TestStandbyFollowerWire pins what a standby says and does on the wire
// to a primary, case by case, against a fake primary that speaks the
// replication protocol from the replicaFixture's frames: which hellos
// it refuses or fences, which records close a stream, and how the
// primary's farewell ends the standby.
func TestStandbyFollowerWire(t *testing.T) {
	// A one-minute lease never expires within a case.
	const lease = time.Minute
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *followerProbe)
	}{
		{"geometry-mismatch", func(t *testing.T, p *followerProbe) {
			c := p.dial(t)
			job := fixtureJob(1)
			job.N, job.Tile = 32, 8
			sendReplHello(t, c, 1, job)
			f, err := decodeFail(expectFrame(t, c, frameFail))
			if err != nil {
				t.Fatal(err)
			}
			for _, geo := range []string{"n=16 tile=4 elem=4", "n=32 tile=8 elem=4"} {
				if !strings.Contains(f.Reason, geo) {
					t.Fatalf("refusal %q does not name geometry %q", f.Reason, geo)
				}
			}
			p.stop(t)
			if p.stats.FencedWrites != 0 || p.stats.Records != 0 {
				t.Fatalf("stats = %+v, want nothing fenced or applied", p.stats)
			}
		}},
		{"stale-hello-fenced", func(t *testing.T, p *followerProbe) {
			p.adopt(t, 3)
			c := p.dial(t)
			sendReplHello(t, c, 2, fixtureJob(2))
			if got := expectEpoch(t, c, frameFenced); got != 3 {
				t.Fatalf("fence carries epoch %d, want 3", got)
			}
			p.stop(t)
			if p.stats.FencedWrites != 1 {
				t.Fatalf("FencedWrites = %d, want 1", p.stats.FencedWrites)
			}
		}},
		{"record-epoch-fenced", func(t *testing.T, p *followerProbe) {
			c := p.adopt(t, 3)
			send(t, c, p.f.doneFrame(t, 0, 2)) // sealed at epoch 7
			if got := expectEpoch(t, c, frameFenced); got != 3 {
				t.Fatalf("fence carries epoch %d, want 3", got)
			}
			expectClosed(t, c)
			p.stop(t)
			if p.stats.FencedWrites != 1 || p.stats.Records != 0 {
				t.Fatalf("stats = %+v, want one fenced write and no record", p.stats)
			}
			p.holds(t)
		}},
		{"rdone-block-count", func(t *testing.T, p *followerProbe) {
			c := p.adopt(t, 7)
			send(t, c, p.f.doneFrame(t, 0, 2))
			p.delta(t)
			send(t, c, endTaskFrame(beginTaskFrame(nil, frameReplDone, 7, 3, p.f.task(t, 1, 1)), 0))
			expectClosed(t, c)
			p.stop(t)
			p.holds(t, [2]int{0, 2})
		}},
		{"rdone-bad-seal", func(t *testing.T, p *followerProbe) {
			c := p.adopt(t, 7)
			send(t, c, p.f.doneFrame(t, 0, 2))
			p.delta(t)
			mut := slices.Clone(p.f.doneFrame(t, 1, 1))
			binary.LittleEndian.PutUint32(mut[frameHeaderLen+taskHeaderLen+8:], 0xDEADBEEF)
			send(t, c, reseal(mut))
			expectClosed(t, c)
			p.stop(t)
			if p.stats.Records != 1 || p.stats.ReplicatedTasks != 1 {
				t.Fatalf("stats = %+v, want the one good record", p.stats)
			}
			p.holds(t, [2]int{0, 2})
		}},
		{"higher-epoch-replaces", func(t *testing.T, p *followerProbe) {
			old := p.adopt(t, 5)
			c := p.adopt(t, 7)
			expectClosed(t, old)
			send(t, c, p.f.doneFrame(t, 0, 2), newFrame(frameDone, nil).b)
			if err := p.result(t); err != nil {
				t.Fatalf("standby returned %v after the primary's done", err)
			}
			if p.stats.Records != 1 || p.stats.ReplicatedTasks != 1 {
				t.Fatalf("stats = %+v, want the new stream's one record", p.stats)
			}
		}},
		{"done-returns-nil", func(t *testing.T, p *followerProbe) {
			c := p.adopt(t, 7)
			send(t, c, newRecord(frameReplSync, 7, 0).b, p.f.doneFrame(t, 0, 2), newFrame(frameDone, nil).b)
			if err := p.result(t); err != nil {
				t.Fatalf("standby returned %v after the primary's done", err)
			}
			if p.stats.TookOver || p.stats.Records != 2 || p.stats.Resyncs != 1 || p.stats.ReplicatedTasks != 1 {
				t.Fatalf("stats = %+v, want no takeover and both records applied", p.stats)
			}
			p.holds(t, [2]int{0, 2})
		}},
		{"fail-returns-reason", func(t *testing.T, p *followerProbe) {
			c := p.adopt(t, 7)
			send(t, c, newFrame(frameFail, failMsg{Reason: "disk on fire"}.encode()).b)
			err := p.result(t)
			if err == nil || !strings.Contains(err.Error(), "primary failed: disk on fire") {
				t.Fatalf("standby returned %v, want the primary's reason", err)
			}
			if p.stats.TookOver {
				t.Fatal("standby took over a primary that reported failure")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, startFollowerProbe(t, lease, nil))
		})
	}
}

// fakeStandby plays the standby against a primary's replicator on a
// loopback listener: it answers every replication hello with a welcome
// and offers the test each welcomed stream. Streams the test does not
// take stay open and unread until the test ends.
type fakeStandby struct {
	addr    string
	streams chan standbyStream
}

// standbyStream is one replication stream a fakeStandby welcomed, with
// the hello and job description it opened with.
type standbyStream struct {
	conn  net.Conn
	hello helloMsg
	job   welcomeMsg
}

// startFakeStandby listens for replication streams. A positive
// readBuffer shrinks each stream's socket receive buffer to that many
// bytes.
func startFakeStandby(t *testing.T, readBuffer int) *fakeStandby {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every stream a test takes; later ones are left unread.
	fs := &fakeStandby{addr: ln.Addr().String(), streams: make(chan standbyStream, 16)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
			if readBuffer > 0 {
				c.(*net.TCPConn).SetReadBuffer(readBuffer)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			typ, payload, err := readFrame(c)
			if err != nil || typ != frameReplHello {
				continue
			}
			hello, job, err := decodeReplHello(payload)
			if err != nil || writeFrame(c, frameReplWelcome, encodeEpoch(hello.Epoch)) != nil {
				continue
			}
			select {
			case fs.streams <- standbyStream{conn: c, hello: hello, job: job}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return fs
}

// next reads the stream's next frame, waiting at most d.
func (s standbyStream) next(d time.Duration) (byte, []byte, error) {
	s.conn.SetReadDeadline(time.Now().Add(d))
	return readFrame(s.conn)
}

// TestPrimaryReplicatorWire pins what a primary says on the wire to its
// standby, case by case, against a fake standby: the hello, the
// snapshot every stream opens with, one record per installed task, the
// pings of a quiet wavefront, and how each way the run ends reaches the
// stream.
func TestPrimaryReplicatorWire(t *testing.T) {
	// primary runs Coordinate over the test table, replicating to a fake
	// standby, and returns the stream it opened, its worker address and
	// its wait.
	primary := func(ctx context.Context, t *testing.T, opts Options) (standbyStream, string, func() error) {
		t.Helper()
		fs := startFakeStandby(t, 0)
		opts.ReplicaAddr = fs.addr
		opts.Logf = t.Logf
		addr, wait := startCoordinator(ctx, t, testTable(t), opts)
		select {
		case s := <-fs.streams:
			return s, addr, wait
		case <-time.After(10 * time.Second):
			t.Fatal("the primary opened no replication stream within 10s")
			return standbyStream{}, "", nil
		}
	}
	// record decodes a record frame's task message.
	record := func(t *testing.T, payload []byte) taskMsg {
		t.Helper()
		msg, err := decodeTaskMsg(payload)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	// opens reads the stream's first frame and fails unless it is the
	// snapshot's rsync at epoch.
	opens := func(t *testing.T, s standbyStream, epoch uint32) {
		t.Helper()
		typ, payload, err := s.next(5 * time.Second)
		if err != nil || typ != frameReplSync {
			t.Fatalf("first frame after the welcome = (kind %d, %v), want an rsync", typ, err)
		}
		if msg := record(t, payload); msg.Epoch != epoch {
			t.Fatalf("rsync at epoch %d, want %d", msg.Epoch, epoch)
		}
	}
	// drain reads the stream to its end and returns the kinds of the
	// frames on it; the stream must end in EOF.
	drain := func(t *testing.T, s standbyStream) []byte {
		t.Helper()
		var kinds []byte
		for {
			typ, _, err := s.next(10 * time.Second)
			if errors.Is(err, io.EOF) {
				return kinds
			}
			if err != nil {
				t.Fatalf("reading the stream after %d frames: %v", len(kinds), err)
			}
			kinds = append(kinds, typ)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, t *testing.T, cancel context.CancelFunc)
	}{
		{"hello-then-rsync", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			opts := testOptions(nil)
			opts.Epoch, opts.Shards = 3, 2
			s, _, wait := primary(ctx, t, opts)
			if s.hello.Epoch != 3 || s.hello.Name != "primary" {
				t.Fatalf("hello = %+v, want epoch 3 and the name \"primary\"", s.hello)
			}
			want := welcomeMsg{ElemBytes: 4, N: testN, Tile: testTile, SchedSide: 1, Shards: 2, Slot: 0,
				HeartbeatMS: 50, DeadlineMS: 2000, Epoch: 3}
			if s.job != want {
				t.Fatalf("replication hello's welcome = %+v, want %+v", s.job, want)
			}
			opens(t, s, 3)
			cancel()
			if err := wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled primary returned %v", err)
			}
		}},
		{"clean-finish", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			var stats Stats
			s, addr, wait := primary(ctx, t, testOptions(&stats))
			var wg sync.WaitGroup
			startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w"})
			// final counts each task's rdone records since the last rsync.
			final := map[int]int{}
			var kinds []byte
			for {
				typ, payload, err := s.next(10 * time.Second)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("reading the stream after %d frames: %v", len(kinds), err)
				}
				kinds = append(kinds, typ)
				switch typ {
				case frameReplSync:
					clear(final)
				case frameReplDone:
					final[record(t, payload).TaskID]++
				case framePing, frameDone:
				default:
					t.Fatalf("frame of kind %d on a fault-free stream", typ)
				}
			}
			if err := wait(); err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			cancel()
			wg.Wait()
			if len(kinds) == 0 || kinds[len(kinds)-1] != frameDone || slices.Index(kinds, frameDone) != len(kinds)-1 {
				t.Fatalf("stream kinds %v, want one done frame, last", kinds)
			}
			for id := 0; id < stats.Tasks; id++ {
				if final[id] != 1 {
					t.Fatalf("task %d has %d rdone records after the last rsync, want 1", id, final[id])
				}
			}
			if len(final) != stats.Tasks {
				t.Fatalf("rdone records for %d tasks, want %d", len(final), stats.Tasks)
			}
		}},
		{"pings-without-workers", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			opts := testOptions(nil)
			opts.HeartbeatEvery = 100 * time.Millisecond
			s, _, wait := primary(ctx, t, opts)
			opens(t, s, 1)
			prev := time.Now()
			for pings := 0; pings < 8; pings++ {
				typ, _, err := s.next(5 * time.Second)
				if err != nil || typ != framePing {
					t.Fatalf("frame %d of a workerless stream = (kind %d, %v), want a ping", pings, typ, err)
				}
				if gap := time.Since(prev); gap > 3*opts.HeartbeatEvery {
					t.Fatalf("ping %d came %v after the frame before it, want at most %v", pings, gap, 3*opts.HeartbeatEvery)
				}
				prev = time.Now()
			}
			cancel()
			if err := wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled primary returned %v", err)
			}
		}},
		{"workerless-fail", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			opts := testOptions(nil)
			opts.WorkerlessAfter = 300 * time.Millisecond
			s, _, wait := primary(ctx, t, opts)
			for {
				typ, payload, err := s.next(10 * time.Second)
				if err != nil {
					t.Fatalf("the stream ended without a fail frame: %v", err)
				}
				if typ != frameFail {
					continue
				}
				f, err := decodeFail(payload)
				if err != nil || !strings.Contains(f.Reason, ErrNoWorkers.Error()) {
					t.Fatalf("fail frame = (%q, %v), want the ErrNoWorkers reason", f.Reason, err)
				}
				break
			}
			if kinds := drain(t, s); len(kinds) != 0 {
				t.Fatalf("frames of kinds %v after the fail frame", kinds)
			}
			if err := wait(); !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("workerless primary returned %v, want ErrNoWorkers", err)
			}
		}},
		{"die-is-silent", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			die := make(chan struct{})
			opts := testOptions(nil)
			opts.Die = die
			s, _, wait := primary(ctx, t, opts)
			opens(t, s, 1)
			close(die)
			if kinds := drain(t, s); slices.Contains(kinds, frameDone) || slices.Contains(kinds, frameFail) {
				t.Fatalf("a killed primary's stream carried kinds %v, want no done or fail frame", kinds)
			}
			if err := wait(); !errors.Is(err, ErrDied) {
				t.Fatalf("killed primary returned %v, want ErrDied", err)
			}
		}},
		{"fenced-after-welcome", func(ctx context.Context, t *testing.T, cancel context.CancelFunc) {
			s, _, wait := primary(ctx, t, testOptions(nil))
			s.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if err := writeFrame(s.conn, frameFenced, encodeEpoch(9)); err != nil {
				t.Fatal(err)
			}
			err := wait()
			var fenced *ErrEpochFenced
			if !errors.As(err, &fenced) || fenced.Epoch != 1 || fenced.Current != 9 {
				t.Fatalf("fenced primary returned %v, want *ErrEpochFenced{1, 9}", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tc.run(ctx, t, cancel)
		})
	}
}

// TestSlowStandbyNeverStallsSolve points a primary at a standby that
// answers the hello and then never reads, with a 4 KB receive buffer:
// the replication stream, about 8 MB of records at n=2048, tile 16,
// backs up into the socket buffers early in the solve. The solve must
// never wait on it. Coordinate returns nil, bit-identical, within the
// solve time plus one write deadline plus 1s, and no accepted task
// waits a write deadline for the one before it.
func TestSlowStandbyNeverStallsSolve(t *testing.T) {
	const n, tile = 2048, 16
	// The oracle is SolveTiled, which npdp's tests hold bit-identical to
	// SolveSerial: SolveSerial takes about 90s at this size under the
	// race detector.
	ref := tri.ToTiled(workload.Chain[float32](n, testSeed), tile)
	if _, err := npdp.SolveTiled(ref); err != nil {
		t.Fatal(err)
	}
	fs := startFakeStandby(t, 4<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	tbl := tri.ToTiled(workload.Chain[float32](n, testSeed), tile)
	var stats Stats
	opts := testOptions(&stats)
	opts.Shards = 2
	opts.ReplicaAddr = fs.addr
	opts.Logf = t.Logf
	// Both run on the event loop; they are read after Coordinate returns.
	var last time.Time
	var maxGap time.Duration
	opts.OnTaskDone = func(int, sched.Task) {
		now := time.Now()
		if !last.IsZero() {
			maxGap = max(maxGap, now.Sub(last))
		}
		last = now
	}
	start := time.Now()
	addr, wait := startCoordinator(ctx, t, tbl, opts)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		startWorker(ctx, t, &wg, addr, WorkerOptions{Name: "w"})
	}
	err := wait()
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, tbl); diff {
		t.Fatalf("cluster result diverges from SolveTiled at (%d,%d): %v, cluster %v", i, j, av, bv)
	}
	if len(fs.streams) == 0 {
		t.Fatal("the primary never opened a replication stream")
	}
	solve := last.Sub(start)
	t.Logf("solve %v, Coordinate returned after %v; longest wait between accepted tasks %v; %d records, %d resyncs",
		solve, elapsed, maxGap, stats.ReplRecords, stats.ReplResyncs)
	if bound := solve + opts.DeadlineAfter + time.Second; elapsed > bound {
		t.Fatalf("Coordinate returned %v after its start, want at most %v (solve %v + deadline %v + 1s)",
			elapsed, bound, solve, opts.DeadlineAfter)
	}
	if maxGap >= opts.DeadlineAfter {
		t.Fatalf("an accepted task waited %v for the one before it: the event loop waited on the standby", maxGap)
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
