package serve

import "fmt"

// TenantCaps bounds one tenant's use of the server. The zero value is
// uncapped. Caps gate admission and availability only: they can refuse
// or cut off work, but they never change what an admitted session
// computes — results stay a pure function of the session's program and
// arguments.
type TenantCaps struct {
	// MaxOpen bounds concurrently open sessions (0 = unlimited).
	MaxOpen int
	// MaxPages bounds the resting footprint of any one session's live
	// machine (repro.StepResult.Pages: distinct page tables plus backed
	// pages); a slice that rests above it fails its request with
	// *CapError, and the session is not dispatched again while it does.
	MaxPages int
	// MaxVT bounds the total virtual time of the tenant's completed
	// sessions; once exhausted, new opens and runs are refused.
	MaxVT int64
	// MaxWallNS bounds the wall-clock execution time charged to the
	// tenant (measured by Config.Clock around each slice; unenforced
	// when no clock is configured).
	MaxWallNS int64
}

// CapError reports a request refused or cut off by a tenant cap.
type CapError struct {
	Tenant string
	Cap    string // "open", "pages", "vt", "wall"
	Limit  int64
	Used   int64
}

func (e *CapError) Error() string {
	return fmt.Sprintf("serve: tenant %s over %s cap: %d of %d used", e.Tenant, e.Cap, e.Used, e.Limit)
}

// tenant is the server-side accounting record for one tenant.
type tenant struct {
	name string
	caps TenantCaps

	seq      uint64 // next session number; IDs are dense and deterministic per tenant
	open     int    // currently open sessions
	vtUsed   int64  // virtual time of completed sessions
	wallUsed int64  // wall time charged by Config.Clock
}

// admission returns the cap that refuses a new open, or nil.
func (t *tenant) admission() *CapError {
	if t.caps.MaxOpen > 0 && t.open >= t.caps.MaxOpen {
		return &CapError{Tenant: t.name, Cap: "open", Limit: int64(t.caps.MaxOpen), Used: int64(t.open)}
	}
	return t.budget(0)
}

// budget returns the cap that refuses a session resting at pages its
// next slice — an exhausted cumulative one (vt or wall), or the page
// cap — or nil. Unlike admission it does not count open sessions, so an
// already-open session can still be driven while head-room lasts.
func (t *tenant) budget(pages int) *CapError {
	if t.caps.MaxVT > 0 && t.vtUsed >= t.caps.MaxVT {
		return &CapError{Tenant: t.name, Cap: "vt", Limit: t.caps.MaxVT, Used: t.vtUsed}
	}
	if t.caps.MaxWallNS > 0 && t.wallUsed >= t.caps.MaxWallNS {
		return &CapError{Tenant: t.name, Cap: "wall", Limit: t.caps.MaxWallNS, Used: t.wallUsed}
	}
	if t.caps.MaxPages > 0 && pages > t.caps.MaxPages {
		return &CapError{Tenant: t.name, Cap: "pages", Limit: int64(t.caps.MaxPages), Used: int64(pages)}
	}
	return nil
}
