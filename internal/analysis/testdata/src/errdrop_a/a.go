// Package errdrop_a exercises the errdrop analyzer: discarded and
// dropped errors from the (fixture) resilience package.
package errdrop_a

import (
	"cluster"
	"pager"
	"resilience"
)

func bareStmt() {
	resilience.CommitCheckpoint() // want `CommitCheckpoint's error discarded`
}

func inGo() {
	go resilience.CommitCheckpoint() // want `discarded by go statement`
}

func inDefer() {
	defer resilience.CommitCheckpoint() // want `discarded by defer`
}

func blank() {
	_ = resilience.CommitCheckpoint() // want `CommitCheckpoint's error assigned to _`
}

func blankTuple(buf []byte) int {
	n, _ := resilience.Checkpoint(buf) // want `Checkpoint's error assigned to _`
	return n
}

func checkedDropped() bool {
	err := resilience.CommitCheckpoint() // want `nil-checked but never consumed`
	return err == nil
}

func propagated() error {
	return resilience.CommitCheckpoint() // ok: caller receives it
}

func wrapped() error {
	if err := resilience.CommitCheckpoint(); err != nil {
		return err // ok: consumed by return
	}
	return nil
}

func record(err error) {}

func consumedByCall() {
	err := resilience.CommitCheckpoint()
	if err != nil {
		record(err) // ok: consumed by a call
	}
}

func directType() {
	resilience.Audit() // want `Audit's error discarded`
}

func recovered() error {
	return resilience.Recover(func() error { return nil }) // ok
}

func unwatched() {
	resilience.Workers() // ok: no error result
}

// mint returns a watched error type from outside the resilience package.
func mint() *resilience.CorruptionError { return nil }

func mintDrop() {
	mint() // want `mint's error discarded`
}

func sealMismatchDrop() {
	resilience.VerifySeal() // want `VerifySeal's error discarded`
}

func sealMismatchBlank() {
	_ = resilience.VerifySeal() // want `VerifySeal's error assigned to _`
}

// mintSeal returns the seal-mismatch type from outside resilience.
func mintSeal() *resilience.ErrSealMismatch { return nil }

func mintSealChecked() bool {
	err := mintSeal() // want `nil-checked but never consumed`
	return err != nil
}

func sealMismatchPropagated() error {
	if err := resilience.VerifySeal(); err != nil {
		return err // ok: consumed by return
	}
	return nil
}

func epochFenceDrop() {
	cluster.CheckEpoch() // want `CheckEpoch's error discarded`
}

func epochFenceBlank() {
	_ = cluster.CheckEpoch() // want `CheckEpoch's error assigned to _`
}

func epochFenceChecked() bool {
	err := cluster.CheckEpoch() // want `nil-checked but never consumed`
	return err != nil
}

func versionDrop() {
	go cluster.Negotiate() // want `discarded by go statement`
}

// mintFence returns the fence type from outside the cluster package.
func mintFence() *cluster.ErrEpochFenced { return nil }

func mintFenceDrop() {
	mintFence() // want `mintFence's error discarded`
}

func epochFencePropagated() error {
	if err := cluster.Negotiate(); err != nil {
		return err // ok: consumed by return
	}
	return nil
}

func clusterUnwatched() {
	cluster.Workers() // ok: no error result, and cluster is not watched wholesale
}

func pageCorruptDrop() {
	pager.PageIn() // want `PageIn's error discarded`
}

func pageCorruptBlank() {
	_ = pager.PageIn() // want `PageIn's error assigned to _`
}

func pageCorruptChecked() bool {
	err := pager.PageIn() // want `nil-checked but never consumed`
	return err != nil
}

func spillSpaceDrop() {
	go pager.Reserve() // want `discarded by go statement`
}

func spillSpaceDefer() {
	defer pager.Reserve() // want `discarded by defer`
}

// mintPageErr returns the page-corruption type from outside the pager
// package.
func mintPageErr() *pager.ErrPageCorrupt { return nil }

func mintPageErrDrop() {
	mintPageErr() // want `mintPageErr's error discarded`
}

func pageCorruptPropagated() error {
	if err := pager.PageIn(); err != nil {
		return err // ok: consumed by return
	}
	return nil
}

func pagerUnwatched() {
	pager.Resident() // ok: no error result, and pager is not watched wholesale
}

// Directive discipline: the watch list is discovered from
// //npdplint:watch annotations on the type declarations, so a typed
// error without the directive is not watched no matter how watched it
// looks, and a newly annotated type is watched with no analyzer change.

func advisoryDrop() {
	cluster.Advise() // ok: *ErrAdvisory carries no directive, so dropping it is legal
}

func advisoryBlank() {
	_ = cluster.Advise() // ok: unwatched type
}

func shadowDrop() {
	pager.Shadow() // want `Shadow's error discarded`
}

func shadowBlank() {
	_ = pager.Shadow() // want `Shadow's error assigned to _`
}
