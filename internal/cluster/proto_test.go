package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// TestFrameRoundTrip pins the frame codec: what writeFrame emits,
// readFrame returns, and any flipped byte is rejected by the checksum.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameDispatch, payload); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	typ, got, err := readFrame(bytes.NewReader(wire))
	if err != nil || typ != frameDispatch || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = (%d, %q, %v)", typ, got, err)
	}
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x40
		if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	// Truncations at every boundary must error, never hang or panic.
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := readFrame(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestMessageRoundTrips covers every message codec.
func TestMessageRoundTrips(t *testing.T) {
	h, err := decodeHello(helloMsg{Name: "w3"}.encode())
	if err != nil || h.Name != "w3" {
		t.Fatalf("hello round trip = (%+v, %v)", h, err)
	}
	w := welcomeMsg{ElemBytes: 4, N: 1024, Tile: 88, SchedSide: 2, Shards: 4, Slot: 3,
		HeartbeatMS: 500, DeadlineMS: 5000}
	got, err := decodeWelcome(w.encode())
	if err != nil || got != w {
		t.Fatalf("welcome round trip = (%+v, %v), want %+v", got, err, w)
	}
	msg := taskMsg{Gen: 7, TaskID: 42, Blocks: []wireBlock{
		{Bi: 1, Bj: 3, CRC: 0xdeadbeef, Raw: []byte{1, 2, 3, 4}},
		{Bi: 2, Bj: 2, CRC: 0x01020304, Raw: []byte{}},
	}}
	back, err := decodeTaskMsg(msg.encode())
	if err != nil || back.Gen != 7 || back.TaskID != 42 || len(back.Blocks) != 2 {
		t.Fatalf("task round trip = (%+v, %v)", back, err)
	}
	for i := range msg.Blocks {
		if back.Blocks[i].Bi != msg.Blocks[i].Bi || back.Blocks[i].CRC != msg.Blocks[i].CRC ||
			!bytes.Equal(back.Blocks[i].Raw, msg.Blocks[i].Raw) {
			t.Fatalf("block %d corrupted in round trip: %+v", i, back.Blocks[i])
		}
	}
	f, err := decodeFail(failMsg{Reason: "boom"}.encode())
	if err != nil || f.Reason != "boom" {
		t.Fatalf("fail round trip = (%+v, %v)", f, err)
	}
	// Trailing garbage after a valid task message must be rejected.
	if _, err := decodeTaskMsg(append(msg.encode(), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeTaskMsgBoundsBlockCount pins the allocation guard: a
// CRC-valid frame claiming ~2^32 blocks over a tiny payload must be
// rejected by arithmetic, not by attempting a multi-hundred-GB slice
// allocation (the frame cap bounds payload bytes, not the count field).
func TestDecodeTaskMsgBoundsBlockCount(t *testing.T) {
	for _, nblocks := range []uint32{1, 1 << 20, ^uint32(0)} {
		p := make([]byte, 12)
		binary.LittleEndian.PutUint32(p[8:], nblocks)
		if _, err := decodeTaskMsg(p); err == nil {
			t.Fatalf("claimed %d blocks over an empty payload, accepted", nblocks)
		}
	}
	// The bound must not reject genuine payloads: headers only, zero-byte
	// cells, at the exact capacity the arithmetic allows.
	legit := taskMsg{Gen: 1, TaskID: 2, Blocks: make([]wireBlock, 9)}
	for i := range legit.Blocks {
		legit.Blocks[i] = wireBlock{Bi: i, Bj: i, Raw: []byte{}}
	}
	if _, err := decodeTaskMsg(legit.encode()); err != nil {
		t.Fatalf("exact-capacity message rejected: %v", err)
	}
}

// encodeCells serializes a block's cells in the canonical tableio
// element encoding — the byte stream resilience.BlockCRC digests, so
// resilience.RawCRC of it is the block's seal.
func encodeCells[E semiring.Elem](cells []E) []byte {
	var e E
	out := make([]byte, tableio.ElemWidth(e)*len(cells))
	tableio.EncodeCells(out, cells)
	return out
}

// TestWireCRCEqualsBlockSeal pins the load-bearing identity: the CRC32C
// of the wire cell bytes equals resilience.BlockCRC of the decoded
// cells, for both element widths. One digest is both transport check
// and block seal.
func TestWireCRCEqualsBlockSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f32 := make([]float32, 64)
	f64 := make([]float64, 64)
	for i := range f32 {
		f32[i] = rng.Float32() * 1e6
		f64[i] = rng.Float64() * 1e6
	}
	if got, want := resilience.RawCRC(encodeCells(f32)), resilience.BlockCRC(f32); got != want {
		t.Fatalf("float32: RawCRC %08x != BlockCRC %08x", got, want)
	}
	if got, want := resilience.RawCRC(encodeCells(f64)), resilience.BlockCRC(f64); got != want {
		t.Fatalf("float64: RawCRC %08x != BlockCRC %08x", got, want)
	}
	dst := make([]float32, 64)
	if err := decodeCells(dst, encodeCells(f32)); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != f32[i] {
			t.Fatalf("cell %d decoded %v, want %v", i, dst[i], f32[i])
		}
	}
	if err := decodeCells(dst, encodeCells(f32)[:7]); err == nil {
		t.Fatal("short cell stream accepted")
	}
}

// knownAnswerCells fills one tile-4 block from bit patterns, so the
// awkward values travel exactly: -0, +Inf, a NaN with a payload, the
// smallest subnormal, then four ordinary values per half block.
func knownAnswerCells[E semiring.Elem](block int) []E {
	var e E
	w := tableio.ElemWidth(e)
	negZero, inf, nan := uint64(0x80000000), uint64(0x7f800000), uint64(0x7fc0beef)
	one, step := uint64(0x3f800000), uint64(0x100000)
	if w == 8 {
		negZero, inf, nan = 1<<63, 0x7ff0000000000000, 0x7ff80000deadbeef
		one, step = 0x3ff0000000000000, 1<<44
	}
	cells := make([]E, 16)
	buf := make([]byte, 8)
	for i := range cells {
		bits := one + uint64(block)*step + uint64(i)
		if i%8 < 4 {
			bits = []uint64{negZero, inf, nan, 1}[i%8]
		}
		binary.LittleEndian.PutUint64(buf, bits)
		cells[i] = tableio.GetElem[E](buf[:w])
	}
	return cells
}

// TestTaskFrameKnownAnswer pins the wire bytes of task frames built in
// place against constants captured from the frame codec before frames
// were built in place, writeFrame(typ, taskMsg{...}.encode()), so the
// format cannot drift; version 3 left task frames as version 2 had them.
func TestTaskFrameKnownAnswer(t *testing.T) {
	const dispatchHex = "" +
		"03b0000000030000000200000005000000020000000000000001000000c50f1b" +
		"2d40000000000000800000807fefbec07f010000000400803f0500803f060080" +
		"3f0700803f000000800000807fefbec07f010000000c00803f0d00803f0e0080" +
		"3f0f00803f01000000010000004b9ee0c940000000000000800000807fefbec0" +
		"7f010000000400903f0500903f0600903f0700903f000000800000807fefbec0" +
		"7f010000000c00903f0d00903f0e00903f0f00903f9bffeeb2"
	const resultHex = "" +
		"04a00000000700000001000000090000000100000002000000030000000b89e6" +
		"8a800000000000000000000080000000000000f07fefbeadde0000f87f010000" +
		"0000000000040000000020f03f050000000020f03f060000000020f03f070000" +
		"000020f03f0000000000000080000000000000f07fefbeadde0000f87f010000" +
		"00000000000c0000000020f03f0d0000000020f03f0e0000000020f03f0f0000" +
		"000020f03f6869091f"

	// A float32 dispatch the way the coordinator builds it.
	dispatch := beginTaskFrame(nil, frameDispatch, 3, 2, 5)
	dispatch = appendSealedBlock(dispatch, 0, 1, knownAnswerCells[float32](0))
	dispatch = appendSealedBlock(dispatch, 1, 1, knownAnswerCells[float32](1))
	dispatch = endTaskFrame(dispatch, 2)

	// A float64 result the way a worker builds it, seals from
	// DigestThenFlip.
	cells := knownAnswerCells[float64](2)
	crcs := resilience.DigestThenFlip([][]float64{cells}, nil, 9, 1)
	result := beginTaskFrame(nil, frameResult, 7, 1, 9)
	result = appendBlock(result, 2, 3, crcs[0], cells)
	result = endTaskFrame(result, 1)

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{{"float32 dispatch", dispatch, dispatchHex}, {"float64 result", result, resultHex}} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if _, _, err := readFrame(bytes.NewReader(tc.got)); err != nil {
			t.Errorf("%s frame does not read back: %v", tc.name, err)
		}
	}
}

// TestHandshakeKnownAnswer pins the version-4 hello, welcome and
// replication-hello payloads. The expected bytes are written out field
// by field from the layout in proto.go, so a codec change that moves,
// adds or drops a field fails here even when encode and decode agree.
func TestHandshakeKnownAnswer(t *testing.T) {
	type rhello struct {
		h helloMsg
		w welcomeMsg
	}
	job := welcomeMsg{ElemBytes: 4, N: 1024, Tile: 88, SchedSide: 1, Shards: 2,
		HeartbeatMS: 50, DeadlineMS: 2000, Epoch: 7}
	for _, tc := range []struct {
		name   string
		got    []byte
		want   string
		decode func([]byte) (any, error)
		msg    any
	}{{
		name: "hello",
		got:  helloMsg{Epoch: 5, Name: "w1"}.encode(),
		want: "4e50434c" + // magic "NPCL"
			"0400" + // version 4
			"05000000" + // epoch 5
			"0200" + "7731", // name "w1"
		decode: func(p []byte) (any, error) { return decodeHello(p) },
		msg:    helloMsg{Epoch: 5, Name: "w1"},
	}, {
		name: "welcome",
		got: welcomeMsg{ElemBytes: 8, N: 2048, Tile: 64, SchedSide: 2, Shards: 3, Slot: 1,
			HeartbeatMS: 500, DeadlineMS: 5000, Epoch: 7}.encode(),
		want: "0400" + // version 4
			"0800" + // elem 8
			"0008000000000000" + // n 2048
			"40000000" + // tile 64
			"02000000" + // sched 2
			"03000000" + // shards 3
			"01000000" + // slot 1
			"f4010000" + // heartbeatMS 500
			"88130000" + // deadlineMS 5000
			"07000000", // epoch 7
		decode: func(p []byte) (any, error) { return decodeWelcome(p) },
		msg: welcomeMsg{ElemBytes: 8, N: 2048, Tile: 64, SchedSide: 2, Shards: 3, Slot: 1,
			HeartbeatMS: 500, DeadlineMS: 5000, Epoch: 7},
	}, {
		name: "rhello",
		got:  append(helloMsg{Epoch: 7, Name: "primary"}.encode(), job.encode()...),
		want: "4e50434c" + // hello: magic "NPCL"
			"0400" + // version 4
			"07000000" + // epoch 7
			"0700" + "7072696d617279" + // name "primary"
			"0400" + // welcome: version 4
			"0400" + // elem 4
			"0004000000000000" + // n 1024
			"58000000" + // tile 88
			"01000000" + // sched 1
			"02000000" + // shards 2
			"00000000" + // slot 0
			"32000000" + // heartbeatMS 50
			"d0070000" + // deadlineMS 2000
			"07000000", // epoch 7
		decode: func(p []byte) (any, error) {
			h, w, err := decodeReplHello(p)
			return rhello{h, w}, err
		},
		msg: rhello{helloMsg{Epoch: 7, Name: "primary"}, job},
	}} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s payload:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		want, _ := hex.DecodeString(tc.want)
		if back, err := tc.decode(want); err != nil || back != tc.msg {
			t.Errorf("%s: decoding the documented bytes = (%+v, %v), want %+v", tc.name, back, err, tc.msg)
		}
	}
}

// TestReplicationRecordKnownAnswer pins whole rdone, rreset and rsync
// frames, written field by field from the layout in proto.go; the seal
// and frame CRC32C values were computed apart from this package. The
// rdone is built both ways the coordinator builds one: from the store's
// cells as a resync snapshot does, and from an installed result's blocks
// as install does.
func TestReplicationRecordKnownAnswer(t *testing.T) {
	const rdoneHex = "0c" + "30000000" + // kind rdone, payload 48 bytes
		"03000000" + "02000000" + "05000000" + "01000000" + // epoch 3, gen 2, task 5, 1 block
		"01000000" + "02000000" + "0a69ba9e" + "10000000" + // bi 1, bj 2, seal, 16 bytes
		"0000803f" + "00000040" + "00004040" + "00008040" + // cells 1, 2, 3, 4
		"9222c053" // frame crc
	const rresetHex = "0d" + "10000000" + // kind rreset, payload 16 bytes
		"03000000" + "00000000" + "05000000" + "00000000" + // epoch 3, gen 0, task 5, no blocks
		"98e85170"
	const rsyncHex = "0e" + "10000000" + // kind rsync, payload 16 bytes
		"03000000" + "00000000" + "00000000" + "00000000" + // epoch 3, gen 0, task 0, no blocks
		"33735df8"

	snap := beginTaskFrame(nil, frameReplDone, 3, 2, 5)
	snap = endTaskFrame(appendSealedBlock(snap, 1, 2, []float32{1, 2, 3, 4}), 1)
	result, err := decodeTaskMsg(framePayload(snap))
	if err != nil {
		t.Fatal(err)
	}
	installed := endTaskFrame(result.encodeBlocks(beginTaskFrame(nil, frameReplDone, 3, result.Gen, result.TaskID)), 1)
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"snapshot rdone", snap, rdoneHex},
		{"installed rdone", installed, rdoneHex},
		{"rreset", newRecord(frameReplReset, 3, 5).b, rresetHex},
		{"rsync", newRecord(frameReplSync, 3, 0).b, rsyncHex},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
