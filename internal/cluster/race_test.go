//go:build race

package cluster

// Under the race detector sync.Pool drops a share of what is put back,
// so the allocation bounds of pooled frame buffers do not hold there.
func init() { raceEnabled = true }
