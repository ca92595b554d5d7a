// Package boardclient defines the one interface every billboard
// transport satisfies: the in-process billboard.Board and the remote
// netboard.Cluster, whose one or more shards are HTTP servers. The
// execution spine (tellme.Options.Board, core.Env, the probe engine)
// depends only on this interface, so algorithm code is transport-blind:
// the same run executes against shared memory, one HTTP server, or a
// shard fleet without special-casing any of them.
//
// The interface is billboard.Interface — the error-free algorithm
// surface — plus the two contracts a *client* of a possibly-remote
// board needs:
//
//   - TopicSnapshot: the epoch-tagged tally read behind the batched
//     wire protocol.
//   - Err/Failures: the failure record. A remote board panics with
//     every terminal transport failure, since billboard.Interface has
//     no error to return; Err keeps the first one and Failures counts
//     them, so a caller that recovered the panic, or a wrapper that
//     only sees the board, can tell what went wrong. The in-memory
//     Board cannot fail and reports nil/0 forever.
package boardclient

import (
	"context"

	"tellme/internal/billboard"
)

// Interface is the full billboard-client surface. billboard.Board and
// netboard.Cluster both satisfy it (compile-time assertions live here
// and in netboard).
type Interface interface {
	billboard.Interface

	// TopicSnapshot returns the topic's identity stamp (gen, epoch)
	// and, unless the caller's (sinceGen, sinceEpoch) already matches,
	// the immutable vote tallies of both posting kinds; unchanged
	// reports a match (tallies nil, caller keeps what it fetched at
	// that stamp). See billboard.Board.TopicSnapshot for the stamp
	// semantics across DropTopic.
	TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote)

	// Err returns the first terminal transport failure (nil if none,
	// and always nil for an in-memory board). The call that hit it
	// panicked with the same error.
	Err() error
	// Failures returns how many requests failed terminally; one call
	// that asks several shards can add one per shard.
	Failures() int64
}

// ContextBinder is the optional context-aware entry point of a board
// client. A client whose operations can block — netboard.Cluster,
// whose every method is an HTTP request with retries — implements it
// by returning a view of itself whose operations are governed by ctx:
// in-flight requests and backoff sleeps abort when ctx is cancelled. The in-memory Board does not implement it; its
// operations never block on anything but short-lived locks, so there
// is nothing to interrupt.
type ContextBinder interface {
	// BindContext returns a view of the board whose operations observe
	// ctx. The view shares all state with the receiver (posting
	// through either is visible through both).
	BindContext(ctx context.Context) Interface
}

// BindContext binds ctx to b when b supports it and ctx is
// cancellable; otherwise it returns b unchanged. This is the single
// seam through which the probe engine (and any other board consumer)
// becomes cancellation-aware without the Interface growing a ctx
// parameter on every call.
func BindContext(ctx context.Context, b Interface) Interface {
	if ctx == nil || ctx.Done() == nil {
		return b
	}
	if cb, ok := b.(ContextBinder); ok {
		return cb.BindContext(ctx)
	}
	return b
}

// The in-memory board satisfies the full client surface (the netboard
// assertions live in that package to avoid an import cycle).
var _ Interface = (*billboard.Board)(nil)
