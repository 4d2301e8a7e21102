package cellsim

import "fmt"

// DMAStats tallies the traffic between local stores and main memory —
// the quantity Figure 9(a) plots.
type DMAStats struct {
	GetCommands int64 // main memory → local store commands
	GetBytes    int64
	PutCommands int64 // local store → main memory commands
	PutBytes    int64
}

// TotalBytes returns traffic in both directions.
func (s DMAStats) TotalBytes() int64 { return s.GetBytes + s.PutBytes }

// Add accumulates other into s.
func (s *DMAStats) Add(other DMAStats) {
	s.GetCommands += other.GetCommands
	s.GetBytes += other.GetBytes
	s.PutCommands += other.PutCommands
	s.PutBytes += other.PutBytes
}

// channel models one memory channel's bandwidth as fluid capacity over
// fixed-width time buckets. Transfers book bytes into buckets starting at
// their issue time and spill forward when a bucket is full. Because the
// discrete-event executor runs task bodies atomically (whole virtual
// spans at a time), bookings arrive out of virtual-time order; the bucket
// model lets a virtually-earlier transfer still use leftover capacity in
// its buckets instead of queuing behind virtually-later ones.
type channel struct {
	width    float64 // seconds per bucket
	capacity float64 // bytes per bucket (width × bandwidth)
	bw       float64 // bytes per second
	used     map[int64]float64
}

// serve books `bytes` starting no earlier than issue and returns the time
// the last byte moves. An uncontended transfer finishes at exactly
// issue + bytes/bw.
func (c *channel) serve(issue float64, bytes float64) float64 {
	left := bytes
	b := int64(issue / c.width)
	finish := issue
	for left > 0 {
		start := float64(b) * c.width
		before := c.used[b]
		avail := c.capacity - before
		// Serving within this bucket begins after both the issue time and
		// the span earlier bookings occupy.
		base := start + before/c.bw
		if issue > base {
			base = issue
			if room := (start + c.width - issue) * c.bw; avail > room {
				avail = room
			}
		}
		if avail > 0 {
			take := left
			if take > avail {
				take = avail
			}
			c.used[b] = before + take
			left -= take
			finish = base + take/c.bw
		}
		b++
	}
	return finish
}

// Machine is one simulated Cell blade: SPEs plus the memory channels they
// contend on and, when two chips are configured, the inter-chip link
// remote accesses cross.
type Machine struct {
	Config   Config
	SPEs     []*SPE
	Stats    DMAStats
	channels []*channel
	link     *channel
}

// bucketSeconds is the granularity of the fluid bandwidth model: fine
// enough that a 32 KB block transfer (≈1.2 µs at 25.6 GB/s) spans a few
// buckets at most, coarse enough that full runs stay cheap.
const bucketSeconds = 10e-6

// NewMachine builds a machine from a validated configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Config: cfg}
	for i := 0; i < cfg.MemChannels; i++ {
		m.channels = append(m.channels, &channel{
			width:    bucketSeconds,
			capacity: bucketSeconds * cfg.ChannelBandwidth,
			bw:       cfg.ChannelBandwidth,
			used:     make(map[int64]float64),
		})
	}
	if cfg.MemChannels > 1 && cfg.InterChipBandwidth > 0 {
		m.link = &channel{
			width:    bucketSeconds,
			capacity: bucketSeconds * cfg.InterChipBandwidth,
			bw:       cfg.InterChipBandwidth,
			used:     make(map[int64]float64),
		}
	}
	for i := 0; i < cfg.NumSPEs; i++ {
		m.SPEs = append(m.SPEs, &SPE{
			ID:      i,
			machine: m,
			ls:      LocalStore{capacity: cfg.DataBytes()},
			tagDone: make(map[int]float64),
		})
	}
	return m, nil
}

// channelOf returns the memory channel SPE id contends on: SPEs are
// striped across channels in contiguous groups (QS20: 0–7 on chip 0,
// 8–15 on chip 1).
func (m *Machine) channelOf(spe int) int {
	group := (m.Config.NumSPEs + m.Config.MemChannels - 1) / m.Config.MemChannels
	ch := spe / group
	if ch >= m.Config.MemChannels {
		ch = m.Config.MemChannels - 1
	}
	return ch
}

// transferBatch books `commands` DMA commands moving `bytes` in total,
// issued by SPE `spe` at virtual time `issue`, and returns their
// completion time: the channel serves the bus bytes through the fluid
// bandwidth model, then the commands pay the unloaded DMA latency. Small
// transfers are dominated by the latency term, which is what makes the
// row-major layout's per-row (and the original algorithm's per-element)
// DMA slow (Sections III and VI-D). The data is homed on memory channel
// `home` (out of range = the SPE's own chip); remote transfers
// additionally cross the inter-chip link, both resources book capacity,
// and the slower one determines completion. The commands are one
// capacity reservation — timing-equivalent to issuing them back to
// back, in O(1) — so scattered-row fetches (one command per row of a
// tiled block) keep paper-scale models cheap.
func (m *Machine) transferBatch(spe int, bytes, commands, home int, issue float64) float64 {
	// Cell DMA moves quadword multiples; smaller requests still occupy a
	// full 16-byte granule on the bus. The controller additionally spends
	// DMACommandOverhead of channel time per command, charged as
	// equivalent bytes so it flows through the same capacity model.
	granules := (bytes + 15*commands) / 16
	overhead := float64(commands) * m.Config.DMACommandOverhead
	busBytes := float64(granules*16) + overhead*m.Config.ChannelBandwidth
	if home < 0 || home >= len(m.channels) {
		home = m.channelOf(spe)
	}
	done := m.channels[home].serve(issue, busBytes)
	if m.link != nil && home != m.channelOf(spe) {
		linkBytes := float64(granules*16) + overhead*m.Config.InterChipBandwidth
		if linkDone := m.link.serve(issue, linkBytes); linkDone > done {
			done = linkDone
		}
	}
	return done + m.Config.DMALatency
}

// Reset clears statistics and channel state, and resets every SPE clock
// and local store. Buffers handed out before Reset must not be reused.
func (m *Machine) Reset() {
	m.Stats = DMAStats{}
	for _, c := range m.channels {
		c.used = make(map[int64]float64)
	}
	if m.link != nil {
		m.link.used = make(map[int64]float64)
	}
	for _, s := range m.SPEs {
		s.Clock = 0
		s.ls.used = 0
		s.tagDone = make(map[int]float64)
	}
}

// CheckSPE validates an SPE index.
func (m *Machine) CheckSPE(id int) error {
	if id < 0 || id >= len(m.SPEs) {
		return fmt.Errorf("cellsim: SPE %d out of range [0,%d)", id, len(m.SPEs))
	}
	return nil
}
