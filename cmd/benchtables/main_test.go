package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
)

// -calibrate must rewrite only this host's [arch/isa] section: another
// host kind's section, measured elsewhere, survives byte for byte and in
// place, and this host's new section parses.
func TestCalibrateKeepsOtherSections(t *testing.T) {
	other := "[otherarch/otherisa]\nfourrussians-crossover\t640\nvector\t32\t0.0900\n"
	stale := "[" + runtime.GOARCH + "/" + kernel.VectorISA() + "]\nfourrussians-crossover\t1\npanel\t32\t9.0000\n"
	path := filepath.Join(t.TempDir(), "cal.txt")
	if err := os.WriteFile(path, []byte("# header\n"+other+stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := calibrate(path); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "# header\n"+other) {
		t.Fatalf("the other host's section did not survive in place:\n%s", body)
	}
	if strings.Contains(string(body), stale) {
		t.Fatalf("this host's stale section was kept:\n%s", body)
	}
	cal, err := perfmodel.ParseCalibration(string(body), runtime.GOARCH, kernel.VectorISA())
	if err != nil || cal == nil || cal.ISA != kernel.VectorISA() || len(cal.NsPerCell[perfmodel.KernelPanel]) == 0 {
		t.Fatalf("this host's section after -calibrate: %+v, %v", cal, err)
	}
}
