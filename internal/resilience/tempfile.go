package resilience

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// tempPrefix is the owner-tagged infix CreateOwnedTemp appends to the
// target's base name: `.tmp-p<pid>-` followed by os.CreateTemp's random
// suffix. The pid is the ownership claim RemoveStaleTemps consults.
func tempPrefix(pid int) string { return fmt.Sprintf(".tmp-p%d-", pid) }

// CreateOwnedTemp creates a pid-tagged temporary file next to path, named
// `<base>.tmp-p<pid>-<random>` — the naming contract every atomic
// temp+rename writer in the repo shares (the pager's spill data file and
// spill index, which together are a solve's checkpoint), so one
// RemoveStaleTemps sweep over the target path reclaims any of their
// crash orphans while leaving a live peer's in-flight write alone. The
// caller writes, syncs, and renames the file over path (or removes it
// on failure).
func CreateOwnedTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempPrefix(os.Getpid())+"*")
}

// tempOwner extracts the owner pid from a temp file name given the
// `<base>.tmp` stem, or ok=false for legacy un-tagged temps
// (`<base>.tmp<random>` from older writers) which carry no claim.
func tempOwner(name, stem string) (pid int, ok bool) {
	rest, found := strings.CutPrefix(name, stem+"-p")
	if !found {
		return 0, false
	}
	digits, _, found := strings.Cut(rest, "-")
	if !found || digits == "" {
		return 0, false
	}
	pid, err := strconv.Atoi(digits)
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// pidAlive reports whether a process with the given pid exists right now.
// Signal 0 performs the existence check without delivering anything; EPERM
// means the pid exists but belongs to another user, which still counts as
// alive — when in doubt a sweep must not delete a peer's in-flight temp.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false // process is certainly gone (non-Unix semantics)
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// RemoveStaleTemps deletes leftover temporary files of the target at
// path — the `<base>.tmp*` files CreateOwnedTemp-based writers (the
// pager's spill data file and spill index) produce before their atomic
// rename. A crash — or a SIGKILL mid-spill — between creating the temp
// and renaming it orphans one; pager create and open call this so
// crashed runs do not accumulate file-size-worth of dead bytes next to
// the live target. It returns how many files were removed.
//
// The sweep is safe under multiple processes sharing a directory: temps
// are owner-tagged with the writer's pid, and a temp whose owner is a
// live process other than the caller is a peer's in-flight write and is
// left alone. Own temps, temps of dead pids, and legacy un-tagged temps
// are removed. Only `.tmp` siblings of this target are ever touched, so
// unrelated files (and the target itself) are never at risk.
func RemoveStaleTemps(path string) (int, error) {
	stem := filepath.Base(path) + ".tmp"
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(path), stem+"*"))
	if err != nil {
		return 0, fmt.Errorf("resilience: scanning for stale checkpoint temps: %w", err)
	}
	self := os.Getpid()
	removed := 0
	for _, m := range matches {
		if pid, ok := tempOwner(filepath.Base(m), stem); ok && pid != self && pidAlive(pid) {
			continue // a live peer's in-flight write
		}
		if err := os.Remove(m); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // a concurrent writer's rename already consumed it
			}
			return removed, fmt.Errorf("resilience: removing stale checkpoint temp: %w", err)
		}
		removed++
	}
	return removed, nil
}
