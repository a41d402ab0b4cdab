// Package qerr is the typed error layer of the query lifecycle: every
// failure crossing a package boundary (services, engine, core, transport)
// is classified by the phase it belongs to, and the two lifecycle outcomes
// a client must distinguish — cancellation and deadline expiry — are
// first-class sentinels. Callers branch with errors.Is/errors.As instead of
// string matching:
//
//	res, err := gdqs.Execute(ctx, sql)
//	switch {
//	case errors.Is(err, qerr.ErrTimeout):   // query exceeded its deadline
//	case errors.Is(err, qerr.ErrCanceled):  // caller canceled the context
//	case qerr.KindOf(err) == qerr.KindPlan: // the SQL never compiled
//	}
//
// The sentinels wrap the matching context sentinels, so code that only
// knows about context.Canceled / context.DeadlineExceeded keeps working.
package qerr

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled reports that the query's context was canceled before the
// result was complete. errors.Is(ErrCanceled, context.Canceled) holds.
var ErrCanceled = fmt.Errorf("query canceled: %w", context.Canceled)

// ErrTimeout reports that the query exceeded its deadline.
// errors.Is(ErrTimeout, context.DeadlineExceeded) holds.
var ErrTimeout = fmt.Errorf("query timed out: %w", context.DeadlineExceeded)

// ErrRejected reports that the admission controller turned the query away
// without queueing it (queue at capacity). Clients should back off and
// retry; the error is always wrapped with KindAdmission.
var ErrRejected = errors.New("query rejected: admission queue full")

// Kind classifies a query error by the lifecycle phase that produced it.
type Kind uint8

// Error kinds.
const (
	KindUnknown Kind = iota
	// KindPlan covers parsing and logical planning: the query text itself
	// is at fault.
	KindPlan
	// KindSchedule covers physical scheduling and plan validation: the
	// query is well-formed but cannot be placed on the current Grid.
	KindSchedule
	// KindExec covers fragment execution: operators, web-service calls,
	// sinks.
	KindExec
	// KindTransport covers message movement between services: failed
	// buffer shipping, unreachable endpoints, control RPC failures.
	KindTransport
	// KindAdmission covers the serving front: the query was well-formed but
	// never started because the admission controller's queue was full or the
	// queue-time budget expired.
	KindAdmission
	// KindNodeLoss covers evaluator death: a machine hosting fragment
	// instances crash-stopped or became unreachable mid-query. In elastic
	// mode the session recovers from it when every affected fragment has
	// surviving partitioned instances; otherwise the query fails with this
	// kind so clients can distinguish "resubmit against the new topology"
	// from a fault in the query itself.
	KindNodeLoss
	// KindStorage covers the temporary-run layer: truncated or corrupt
	// block frames, unreadable spill files, readers opened on unsealed
	// runs. It distinguishes "the stored bytes are damaged" from a fault
	// in the query (KindExec) so operators can surface storage rot
	// without misclassifying it as their own bug.
	KindStorage
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPlan:
		return "plan"
	case KindSchedule:
		return "schedule"
	case KindExec:
		return "exec"
	case KindTransport:
		return "transport"
	case KindAdmission:
		return "admission"
	case KindNodeLoss:
		return "node-loss"
	case KindStorage:
		return "storage"
	default:
		return "unknown"
	}
}

// Error is a classified query error. It wraps the underlying cause, so
// errors.Is/As see through it.
type Error struct {
	Kind Kind
	// Op names the failing operation ("parse", "fragment q1-f2#0", ...).
	Op  string
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("%s: %v", e.Kind, e.Err)
	}
	return fmt.Sprintf("%s %s: %v", e.Kind, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// New wraps err with a kind and operation name; nil stays nil, and an err
// already carrying the same kind is returned unchanged (boundaries can
// wrap defensively without stuttering).
func New(kind Kind, op string, err error) error {
	if err == nil {
		return nil
	}
	var qe *Error
	if errors.As(err, &qe) && qe.Kind == kind {
		return err
	}
	return &Error{Kind: kind, Op: op, Err: err}
}

// Plan wraps a parsing/logical-planning error.
func Plan(op string, err error) error { return New(KindPlan, op, err) }

// Schedule wraps a physical-scheduling error.
func Schedule(op string, err error) error { return New(KindSchedule, op, err) }

// Exec wraps a fragment-execution error.
func Exec(op string, err error) error { return New(KindExec, op, err) }

// Transport wraps a message-transport error.
func Transport(op string, err error) error { return New(KindTransport, op, err) }

// Admission wraps an admission-control error.
func Admission(op string, err error) error { return New(KindAdmission, op, err) }

// NodeLoss wraps an evaluator-death error.
func NodeLoss(op string, err error) error { return New(KindNodeLoss, op, err) }

// Storage wraps a temporary-run-layer error (corrupt or truncated block
// frames, unreadable runs).
func Storage(op string, err error) error { return New(KindStorage, op, err) }

// KindOf reports the kind of the outermost *Error in err's chain, or
// KindUnknown.
func KindOf(err error) Kind {
	var qe *Error
	if errors.As(err, &qe) {
		return qe.Kind
	}
	return KindUnknown
}

// FromContext translates a done context into the lifecycle error a query
// should surface: the cancellation cause when a sibling failure triggered
// first-error-wins teardown, ErrTimeout when the deadline expired, and
// ErrCanceled for a plain external cancellation. It returns nil while ctx
// is still live.
func FromContext(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	cause := context.Cause(ctx)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(cause, context.DeadlineExceeded) {
		return ErrTimeout
	}
	if cause != nil && !errors.Is(cause, context.Canceled) {
		// A sibling fragment failed and canceled the session: surface that
		// failure, not the cancellation it caused.
		return cause
	}
	return ErrCanceled
}
