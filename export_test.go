package scalana

// Test-only access to the execute phase, so the external differential
// harness can run one compiled program on the bytecode VM and on the
// reference interpreter (internal/interp) and compare the outputs.

// BodyBuilder builds the per-rank body a run executes.
type BodyBuilder = bodyBuilder

// RunCompiled runs an already-compiled program with the given body
// builder; Engine.Run is RunCompiled with VMBody after compilation.
var RunCompiled = runCompiled

// VMBody is the bytecode VM body builder every Engine run uses.
var VMBody BodyBuilder = vmBody
