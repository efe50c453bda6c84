package serve

// Metrics is a snapshot of the server's counters (Server.Stats). All
// counts are cumulative since New unless noted.
type Metrics struct {
	Opened    int64 // sessions admitted
	Closed    int64 // sessions closed
	Completed int64 // sessions whose final result was computed

	Slices       int64 // timeslices executed (including retries)
	Retries      int64 // slices re-run after a worker death
	WorkerDeaths int64 // slices that died mid-execution (injected or real panic)
	Failovers    int64 // sessions re-admitted on a fresh Session after a post-slice death

	// BitEqOK / BitEqFail count failover re-executions whose checkpoint
	// digest did (did not) match the dead worker's attempt. BitEqFail
	// staying zero is the paper's claim made operational: re-running a
	// slice from the last manifest is bit-identical, so retry and
	// failover are safe by construction.
	BitEqOK   int64
	BitEqFail int64

	Evictions int64 // resting sessions captured, pushed to the store and torn down
	EvictNS   int64 // wall time of those saves by Config.Clock; the server's cost, charged to no tenant and not part of WallNS
	Resumes   int64 // slices that began by rebuilding a suspended session from the store
	ResumeNS  int64 // wall time of those resumed slices (subset of WallNS)

	CapRejections int64 // opens/runs refused by tenant caps

	ResidentSessions  int64 // sessions currently holding a live machine
	ResidentPages     int64 // footprint of those machines (tables + pages, see repro.StepResult.Pages)
	ResidentPeakPages int64 // high-water mark of ResidentPages

	WallNS int64 // total slice wall time measured by Config.Clock
}
