package pager

import (
	"fmt"
	"strings"
	"sync/atomic"
	"syscall"
)

// DiskFaultKind classifies what the disk-fault injector does to one
// spill-file I/O operation.
type DiskFaultKind int

// The injectable disk faults. Write operations can draw EIO, Torn, or
// ENOSPC; read operations can draw EIO or Flip — kinds outside an
// operation's domain are skipped for that operation.
const (
	DiskFaultNone   DiskFaultKind = iota
	DiskFaultEIO                  // the syscall fails with EIO
	DiskFaultTorn                 // a write persists only a prefix yet reports success
	DiskFaultFlip                 // a read silently returns one flipped bit
	DiskFaultENOSPC               // a write fails with ENOSPC
)

// String names the disk-fault kind.
func (k DiskFaultKind) String() string {
	switch k {
	case DiskFaultNone:
		return "none"
	case DiskFaultEIO:
		return "eio"
	case DiskFaultTorn:
		return "torn"
	case DiskFaultFlip:
		return "flip"
	case DiskFaultENOSPC:
		return "enospc"
	}
	return fmt.Sprintf("diskfault(%d)", int(k))
}

// ParseDiskFaultKinds parses a comma-separated disk-fault list (the
// CLI's -disk-faultkinds syntax), e.g. "eio,torn,flip,enospc". Empty
// input returns nil — the injector's all-kinds default.
func ParseDiskFaultKinds(s string) ([]DiskFaultKind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var kinds []DiskFaultKind
	for _, part := range strings.Split(s, ",") {
		switch name := strings.TrimSpace(part); name {
		case "eio":
			kinds = append(kinds, DiskFaultEIO)
		case "torn":
			kinds = append(kinds, DiskFaultTorn)
		case "flip":
			kinds = append(kinds, DiskFaultFlip)
		case "enospc":
			kinds = append(kinds, DiskFaultENOSPC)
		default:
			return nil, fmt.Errorf("unknown disk fault kind %q (want eio, torn, flip, or enospc)", name)
		}
	}
	return kinds, nil
}

// DiskFaults deterministically injects faults into the pager's spill
// I/O: whether the i-th physical operation faults, and how, is a pure
// function of (Seed, i). Operation numbering is a process-global
// sequence over the pager's reads and writes, so a run with a given
// seed and a serial engine faults the same operations every time; under
// a concurrent engine the op→block mapping can shift with scheduling,
// but the fault *schedule* — which op indices fault, and how — is still
// fixed, which is what the chaos smokes assert on.
type DiskFaults struct {
	// Rate is the per-operation fault probability in [0, 1].
	Rate float64
	// Seed drives the deterministic per-operation decision.
	Seed int64
	// Kinds is the set of faults to draw from; empty means all four.
	Kinds []DiskFaultKind

	ops atomic.Uint64
}

// splitmix64 is the SplitMix64 finalizer — the same mixing the
// resilience injector uses, so seeds behave alike across fault domains.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the mixed 64-bit draw for operation op.
func (f *DiskFaults) draw(op uint64) uint64 {
	h := splitmix64(uint64(f.Seed))
	return splitmix64(h ^ op*0x9e3779b97f4a7c15)
}

// plan advances the operation counter and returns the fault for this
// operation, restricted to the kinds in domain. A drawn kind outside the
// domain downgrades to DiskFaultNone (the op count still advances, so
// read and write schedules stay aligned with the global sequence).
func (f *DiskFaults) plan(domain []DiskFaultKind) DiskFaultKind {
	k, _ := f.planOp(domain)
	return k
}

// planOp is plan that also returns the operation index it claimed, so
// whatever else the operation draws derives from that index and not
// from the counter, which concurrent operations keep advancing.
func (f *DiskFaults) planOp(domain []DiskFaultKind) (DiskFaultKind, uint64) {
	if f == nil || f.Rate <= 0 {
		return DiskFaultNone, 0
	}
	op := f.ops.Add(1) - 1
	h := f.draw(op)
	u := float64(h>>11) / (1 << 53)
	if u >= f.Rate {
		return DiskFaultNone, op
	}
	kinds := f.Kinds
	if len(kinds) == 0 {
		kinds = []DiskFaultKind{DiskFaultEIO, DiskFaultTorn, DiskFaultFlip, DiskFaultENOSPC}
	}
	k := kinds[splitmix64(h)%uint64(len(kinds))]
	for _, d := range domain {
		if k == d {
			return k, op
		}
	}
	return DiskFaultNone, op
}

// bitDraw returns the deterministic draw a DiskFaultFlip of operation op
// uses to pick the flipped bit, decorrelated from the fault decision
// itself. It mixes draw(op+1), the value a serial run has always used.
func (f *DiskFaults) bitDraw(op uint64) uint64 {
	return splitmix64(f.draw(op+1) ^ 0xc2b2ae3d27d4eb4f)
}

var (
	writeFaultDomain = []DiskFaultKind{DiskFaultEIO, DiskFaultTorn, DiskFaultENOSPC}
	readFaultDomain  = []DiskFaultKind{DiskFaultEIO, DiskFaultFlip}
)

// writeAt performs one injected slot write: EIO and ENOSPC fail the
// syscall, Torn persists only the first half of buf and reports full
// success (the torn-write model — the CRC trailer lands in the missing
// suffix, so the next page-in detects it).
func (f *DiskFaults) writeAt(file interface {
	WriteAt([]byte, int64) (int, error)
}, buf []byte, off int64) (DiskFaultKind, error) {
	switch k := f.plan(writeFaultDomain); k {
	case DiskFaultEIO:
		return k, fmt.Errorf("pager: injected write fault: %w", syscall.EIO)
	case DiskFaultENOSPC:
		return k, fmt.Errorf("pager: injected write fault: %w", syscall.ENOSPC)
	case DiskFaultTorn:
		if _, err := file.WriteAt(buf[:len(buf)/2], off); err != nil {
			return k, err
		}
		return k, nil
	}
	_, err := file.WriteAt(buf, off)
	return DiskFaultNone, err
}

// readAt performs one injected slot read: EIO fails the syscall, Flip
// silently flips one bit of the returned buffer (the bit-rot model — the
// CRC check downstream is the only thing that can catch it).
func (f *DiskFaults) readAt(file interface {
	ReadAt([]byte, int64) (int, error)
}, buf []byte, off int64) (DiskFaultKind, error) {
	k, op := f.planOp(readFaultDomain)
	if k == DiskFaultEIO {
		return k, fmt.Errorf("pager: injected read fault: %w", syscall.EIO)
	}
	if _, err := file.ReadAt(buf, off); err != nil {
		return DiskFaultNone, err
	}
	if k == DiskFaultFlip && len(buf) > 0 {
		bit := f.bitDraw(op) % uint64(len(buf)*8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	return k, nil
}
