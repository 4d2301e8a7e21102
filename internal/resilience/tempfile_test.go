package resilience

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRemoveStaleTemps asserts crash-orphaned `.tmp` siblings of a
// checkpoint are swept while the live checkpoint and unrelated files
// survive.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "solve.npck")
	live := []byte("the live checkpoint")
	if err := os.WriteFile(ck, live, 0o644); err != nil {
		t.Fatal(err)
	}
	// Orphans as os.CreateTemp(dir, base+".tmp*") leaves them, plus
	// bystanders that must not be touched.
	for _, name := range []string{"solve.npck.tmp123", "solve.npck.tmp999"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	other := filepath.Join(dir, "other.npck.tmp1")
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveStaleTemps(ck)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d temps, want 2", removed)
	}
	if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live checkpoint removed or changed: %q, %v", got, err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated temp removed: %v", err)
	}
	// Idempotent: a second sweep finds nothing.
	if removed, err := RemoveStaleTemps(ck); err != nil || removed != 0 {
		t.Fatalf("second sweep = (%d, %v), want (0, nil)", removed, err)
	}
}

// TestTempOwnerParsing pins the owner-tag grammar: only a well-formed
// `.tmp-p<pid>-<random>` name carries a claim; everything else is legacy.
func TestTempOwnerParsing(t *testing.T) {
	const stem = "solve.npck.tmp"
	cases := []struct {
		name string
		pid  int
		ok   bool
	}{
		{"solve.npck.tmp-p1234-567", 1234, true},
		{"solve.npck.tmp-p1-x", 1, true},
		{"solve.npck.tmp123", 0, false},     // legacy, no tag
		{"solve.npck.tmp-p-5", 0, false},    // empty pid
		{"solve.npck.tmp-pabc-5", 0, false}, // non-numeric pid
		{"solve.npck.tmp-p99", 0, false},    // no closing dash
		{"solve.npck.tmp-p0-x", 0, false},   // pid must be positive
	}
	for _, c := range cases {
		pid, ok := tempOwner(c.name, stem)
		if pid != c.pid || ok != c.ok {
			t.Errorf("tempOwner(%q) = (%d, %v), want (%d, %v)", c.name, pid, ok, c.pid, c.ok)
		}
	}
}

// TestSaveCheckpointTempsCarryPid asserts the checkpoint's writers'
// temps (CreateOwnedTemp: the spill file's at create, the index's at
// every commit) are tagged with the writer's own pid, so a peer's sweep
// can recognize them as in-flight.
func TestSaveCheckpointTempsCarryPid(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "solve.npsp")
	for _, target := range []string{ck, ck + ".idx"} {
		tmp, err := CreateOwnedTemp(target)
		if err != nil {
			t.Fatal(err)
		}
		tmp.Close()
		if filepath.Dir(tmp.Name()) != dir {
			t.Fatalf("temp %s is not beside its target %s", tmp.Name(), target)
		}
		pid, ok := tempOwner(filepath.Base(tmp.Name()), filepath.Base(target)+".tmp")
		if !ok || pid != os.Getpid() {
			t.Fatalf("writer temp name %q parses to (%d, %v), want own pid %d", tmp.Name(), pid, ok, os.Getpid())
		}
	}
}

// TestRemoveStaleTempsSparesLivePeers is the two-processes-one-dir
// scenario: a sweep must remove its own temps, dead owners' temps, and
// legacy un-tagged temps — but never a live peer's in-flight temp.
// Pid 1 stands in for the live peer (always running, never ours); a
// spawned-and-reaped subprocess provides a genuinely dead pid.
func TestRemoveStaleTempsSparesLivePeers(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "solve.npck")
	base := filepath.Base(ck)

	deadPid := reapedPid(t)
	write := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	own := write(base + tempPrefix(os.Getpid()) + "aaa")
	dead := write(base + tempPrefix(deadPid) + "bbb")
	legacy := write(base + ".tmp777")
	peer := write(base + tempPrefix(1) + "ccc")

	removed, err := RemoveStaleTemps(ck)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d temps, want 3 (own + dead + legacy)", removed)
	}
	for _, gone := range []string{own, dead, legacy} {
		if _, err := os.Stat(gone); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s should have been swept (stat err %v)", filepath.Base(gone), err)
		}
	}
	if _, err := os.Stat(peer); err != nil {
		t.Fatalf("live peer's in-flight temp was deleted: %v", err)
	}
	if !pidAlive(os.Getpid()) {
		t.Fatal("pidAlive(self) = false")
	}
	if pidAlive(deadPid) {
		t.Fatalf("pidAlive(%d) = true for a reaped subprocess", deadPid)
	}
}

// reapedPid spawns a trivial subprocess, waits for it, and returns its
// now-dead pid.
func reapedPid(t *testing.T) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot spawn subprocess for dead-pid fixture: %v", err)
	}
	return cmd.Process.Pid
}
