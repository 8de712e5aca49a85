// Package dataflow is the runtime layer under Persona's stages (§4 of the
// paper) — the part of the role TensorFlow plays in the original system that
// is not specific to genomics:
//
//   - Executor: the shared fine-grain executor of Fig. 4. It owns the compute
//     threads (one work-stealing shard per worker); stages split each chunk
//     into subchunk tasks and submit them, so compute-intense kernels share
//     one set of threads instead of each stage running its own.
//   - ItemPool and ShardedItemPool: bounded pools of recyclable objects
//     (decoded chunks, builders, arenas). Bulk data stays in pooled objects
//     and only handles move between stages (§4.5, §4.6); a pool's bound is
//     the back-pressure that caps memory.
//   - Pumps: the goroutines that drive stages concurrently, one per stage,
//     with first-error-wins teardown over a shared context.
//
// The stage contract itself — agd.GroupStream, and agd.BoundedEdge between
// pumped stages — lives with the data it carries, in package agd. Nothing
// here knows about genomics.
package dataflow

import "errors"

// ErrClosed is returned by Executor.Submit after the executor has been shut
// down.
var ErrClosed = errors.New("dataflow: closed")

// ErrStopped is returned when an operation (a Submit, a pool Get) is
// abandoned because its context was cancelled.
var ErrStopped = errors.New("dataflow: stopped")
