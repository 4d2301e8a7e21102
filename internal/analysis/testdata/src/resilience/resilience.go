// Package resilience is a fixture stand-in for the real resilience
// package: the same watched error types and result shapes, no behavior.
// The errdrop analyzer matches packages by import-path suffix, so this
// bare "resilience" path exercises the same rules as
// cellnpdp/internal/resilience.
package resilience

import "errors"

// CorruptionError is the fixture twin of the seal-audit error.
//
//npdplint:watch
type CorruptionError struct{ Block int }

func (e *CorruptionError) Error() string { return "corruption" }

// PanicError is the fixture twin of the recovered-panic error.
//
//npdplint:watch
type PanicError struct{ TaskID int }

func (e *PanicError) Error() string { return "panic" }

// CommitCheckpoint publishes a checkpoint; the error is the only record
// that it was lost.
func CommitCheckpoint() error { return errors.New("checkpoint") }

// Audit returns corruption evidence directly.
func Audit() *CorruptionError { return nil }

// Recover runs f, converting panics into PanicError.
func Recover(f func() error) error { return f() }

// Checkpoint encodes a snapshot.
func Checkpoint(data []byte) (int, error) { return len(data), nil }

// Workers reports a count; no error result, so it is not watched.
func Workers() int { return 1 }

// ErrSealMismatch is the fixture twin of the boundary-block seal error.
//
//npdplint:watch
type ErrSealMismatch struct{ Bi, Bj int }

func (e *ErrSealMismatch) Error() string { return "seal mismatch" }

// VerifySeal returns transit-corruption evidence directly.
func VerifySeal() *ErrSealMismatch { return nil }
