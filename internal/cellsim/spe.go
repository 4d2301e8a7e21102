package cellsim

import "fmt"

// LocalStore tracks allocation of an SPE's data region. It is an
// accounting allocator: buffers live as ordinary Go slices, but every
// allocation must fit the 256 KB (minus code) budget, so an algorithm
// that over-tiles fails here exactly as it would fail to link on the SPU.
type LocalStore struct {
	capacity int
	used     int
}

// Capacity returns the data capacity in bytes.
func (ls *LocalStore) Capacity() int { return ls.capacity }

// Used returns the currently allocated bytes.
func (ls *LocalStore) Used() int { return ls.used }

// reserve claims n bytes, 16-byte aligned (quadword) as the SPU requires.
func (ls *LocalStore) reserve(n int) error {
	aligned := (n + 15) &^ 15
	if ls.used+aligned > ls.capacity {
		return fmt.Errorf("cellsim: local store overflow: %d used + %d requested > %d capacity",
			ls.used, aligned, ls.capacity)
	}
	ls.used += aligned
	return nil
}

// release returns n bytes claimed by reserve.
func (ls *LocalStore) release(n int) {
	aligned := (n + 15) &^ 15
	ls.used -= aligned
	if ls.used < 0 {
		panic("cellsim: local store release underflow")
	}
}

// SPE is one synergistic processor element: a virtual clock, a local
// store, and outstanding DMA tag groups.
type SPE struct {
	ID      int
	Clock   float64 // virtual time in seconds
	machine *Machine
	ls      LocalStore
	tagDone map[int]float64 // per tag group: completion time of the last command
}

// LS exposes the local store for inspection.
func (s *SPE) LS() *LocalStore { return &s.ls }

// AdvanceCycles moves the SPE's clock forward by a computation of the
// given cycle count.
func (s *SPE) AdvanceCycles(cycles float64) {
	s.Clock += s.machine.Config.Seconds(cycles)
}

// WaitTag blocks (in virtual time) until every DMA command issued on the
// tag group has completed — the mfc_write_tag_mask/mfc_read_tag_status
// idiom double buffering is built on.
func (s *SPE) WaitTag(tag int) {
	if t, ok := s.tagDone[tag]; ok && t > s.Clock {
		s.Clock = t
	}
	delete(s.tagDone, tag)
}

// WaitAll blocks until every outstanding DMA command has completed.
func (s *SPE) WaitAll() {
	for tag, t := range s.tagDone {
		if t > s.Clock {
			s.Clock = t
		}
		delete(s.tagDone, tag)
	}
}

// bookDMAHomed records a transfer on a tag group and in the machine
// stats; its main-memory data is homed on the given memory channel
// (-1 = the SPE's own chip).
func (s *SPE) bookDMAHomed(bytes int, tag int, get bool, home int) {
	s.bookDMABatch(bytes, 1, tag, get, home)
}

// bookDMABatch records `commands` back-to-back commands totalling `bytes`.
func (s *SPE) bookDMABatch(bytes, commands, tag int, get bool, home int) {
	done := s.machine.transferBatch(s.ID, bytes, commands, home, s.Clock)
	if t, ok := s.tagDone[tag]; !ok || done > t {
		s.tagDone[tag] = done
	}
	if get {
		s.machine.Stats.GetCommands += int64(commands)
		s.machine.Stats.GetBytes += int64(bytes)
	} else {
		s.machine.Stats.PutCommands += int64(commands)
		s.machine.Stats.PutBytes += int64(bytes)
	}
}

// GetTimedScattered books a get of `commands` commands moving `bytes`
// total (e.g. one command per scattered row of a tiled block).
func (s *SPE) GetTimedScattered(bytes, commands, tag, home int) {
	s.bookDMABatch(bytes, commands, tag, true, home)
}

// Buffer is a typed local-store buffer.
type Buffer[E any] struct {
	Data []E
	spe  *SPE
	elem int
}

// Alloc reserves a local-store buffer of n elements on the SPE. The
// element size is computed from the type via elemBytes.
func Alloc[E any](s *SPE, n int, elemBytes int) (*Buffer[E], error) {
	if n <= 0 || elemBytes <= 0 {
		return nil, fmt.Errorf("cellsim: invalid buffer request: %d elements × %d bytes", n, elemBytes)
	}
	if err := s.ls.reserve(n * elemBytes); err != nil {
		return nil, err
	}
	return &Buffer[E]{Data: make([]E, n), spe: s, elem: elemBytes}, nil
}

// Free returns the buffer's bytes to the local store.
func (b *Buffer[E]) Free() {
	if b.Data == nil {
		return
	}
	b.spe.ls.release(len(b.Data) * b.elem)
	b.Data = nil
}

// Get issues an asynchronous DMA from main memory (src) into the buffer
// on the given tag group: the data is copied immediately (virtual time
// makes that safe — the source cannot change until a dependent task runs)
// and the completion time is booked for WaitTag. The data is treated as
// homed on the SPE's own chip; use GetHomed for NUMA-aware accounting.
func (b *Buffer[E]) Get(src []E, tag int) error {
	return b.GetHomed(src, tag, -1)
}

// GetHomed is Get for data homed on the given memory channel.
func (b *Buffer[E]) GetHomed(src []E, tag int, home int) error {
	if len(src) > len(b.Data) {
		return fmt.Errorf("cellsim: DMA get of %d elements into %d-element buffer", len(src), len(b.Data))
	}
	copy(b.Data, src)
	b.spe.bookDMAHomed(len(src)*b.elem, tag, true, home)
	return nil
}

// Put issues an asynchronous DMA from the buffer to main memory (dst),
// homed on the SPE's own chip.
func (b *Buffer[E]) Put(dst []E, tag int) error {
	return b.PutHomed(dst, tag, -1)
}

// PutHomed is Put for data homed on the given memory channel.
func (b *Buffer[E]) PutHomed(dst []E, tag int, home int) error {
	if len(dst) > len(b.Data) {
		return fmt.Errorf("cellsim: DMA put of %d elements from %d-element buffer", len(dst), len(b.Data))
	}
	copy(dst, b.Data[:len(dst)])
	b.spe.bookDMAHomed(len(dst)*b.elem, tag, false, home)
	return nil
}

// GetTimed books a DMA get of the given byte count without copying any
// data; the timing-only engines (pure performance modeling at paper-scale
// problem sizes) use it so modeled runs cost O(blocks), not O(n³).
func (s *SPE) GetTimed(bytes int, tag int) { s.bookDMAHomed(bytes, tag, true, -1) }

// GetTimedHomed is GetTimed for data homed on the given channel.
func (s *SPE) GetTimedHomed(bytes int, tag int, home int) { s.bookDMAHomed(bytes, tag, true, home) }

// PutTimedHomed books a DMA put of the given byte count, for data homed
// on the given channel, without copying.
func (s *SPE) PutTimedHomed(bytes int, tag int, home int) { s.bookDMAHomed(bytes, tag, false, home) }
