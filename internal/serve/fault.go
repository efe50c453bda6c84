package serve

// Fault injection: tests and the bench table use a FaultHook to kill
// workers at chosen points and check that the determinism guarantee
// holds operationally — a re-run slice or a failed-over session is
// bit-identical to the attempt the dead worker made.

// FaultAction tells the server how the worker assigned to a slice dies.
type FaultAction int

const (
	// FaultNone runs the slice normally.
	FaultNone FaultAction = iota
	// FaultCrashMid kills the worker mid-slice: the slice's first phase
	// panics before completing, taking the live machine with it, and the
	// server re-runs the slice on the spot — the session rebuilds the
	// machine from its anchor by deterministic re-execution.
	FaultCrashMid
	// FaultCrashAfter kills the worker after the slice completes but
	// before it reports back: the server fails over to a fresh Session
	// re-admitted from the pre-slice manifest, re-runs the slice, and
	// asserts the re-run's checkpoint digest equals the dead worker's.
	FaultCrashAfter
)

// FaultEvent describes the slice about to be dispatched.
type FaultEvent struct {
	Tenant  string
	Session SessionID
	Phase   int   // barrier the session rests at (-1 when still in the store)
	Slice   int64 // global slice ordinal
}

// FaultHook decides the fate of each slice. It runs under the server
// mutex and must not call back into the server.
type FaultHook func(FaultEvent) FaultAction
