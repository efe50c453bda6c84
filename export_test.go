package repro

// The internal tests' phased programs, for the external tests: those
// may import packages that import this one (internal/serve's programs).
var (
	ArrayProgram  = arrayProgram
	DschedProgram = dschedProgram
	DeviceProgram = deviceProgram
	SparseProgram = sparseProgram
)

// UprocTestProgram is uprocTestProgram over its own registry.
func UprocTestProgram() Program { return uprocTestProgram(uprocTestRegistry()) }
