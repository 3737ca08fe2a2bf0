package commmatrix_test

import (
	"reflect"
	"testing"

	"scalana/internal/commmatrix"

	scalana "scalana"
)

// pairApp moves a known volume: rank 0 sends 3×100 bytes to rank 1,
// then everyone joins an 8-byte allreduce.
var pairApp = &scalana.App{
	Name: "commmatrix-pair", File: "pair.mp", MinNP: 2,
	Source: `
func main() {
	for (var i = 0; i < 3; i = i + 1) {
		if (mpi_rank() == 0) {
			mpi_send(1, 7, 100);
		}
		if (mpi_rank() == 1) {
			mpi_recv(0, 7, 100);
		}
	}
	mpi_allreduce(8);
}`,
}

func runMatrix(t *testing.T, app *scalana.App, np int) (*scalana.RunOutput, *commmatrix.Matrix) {
	t.Helper()
	out, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: np, ToolName: "commmatrix"})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := out.Measurement.Data().(*commmatrix.Matrix)
	if !ok {
		t.Fatalf("payload is %T, want *commmatrix.Matrix", out.Measurement.Data())
	}
	return out, m
}

// TestCollectorCountsKnownPattern checks exact byte and message
// accounting on a deterministic two-rank exchange — driven end to end
// through the public registry, not by poking the hook directly.
func TestCollectorCountsKnownPattern(t *testing.T) {
	out, m := runMatrix(t, pairApp, 2)
	if out.Tool != "commmatrix" || out.Measurement.ToolName() != "commmatrix" {
		t.Errorf("tool name = %q / %q", out.Tool, out.Measurement.ToolName())
	}
	if got := m.At(0, 1); got != 300 {
		t.Errorf("rank 0 -> 1 bytes = %g, want 300", got)
	}
	if got := m.At(1, 0); got != 300 {
		t.Errorf("rank 1 <- 0 bytes = %g, want 300", got)
	}
	if m.Msgs[0*2+1] != 3 || m.Msgs[1*2+0] != 3 {
		t.Errorf("message counts = %v, want 3 each way", m.Msgs)
	}
	if got := m.TotalBytes(); got != 600 {
		t.Errorf("total p2p bytes = %g, want 600", got)
	}

	// Per-vertex accounting: rank 0 all send, rank 1 all recv, one
	// collective each.
	var sends, recvs, colls int64
	for _, vc := range m.Ranks[0].ByVertex {
		sends += vc.SendMsgs
		recvs += vc.RecvMsgs
		colls += vc.CollMsgs
	}
	if sends != 3 || recvs != 0 || colls != 1 {
		t.Errorf("rank 0 msgs: send=%d recv=%d coll=%d, want 3/0/1", sends, recvs, colls)
	}
	sends, recvs, colls = 0, 0, 0
	var collBytes float64
	for _, vc := range m.Ranks[1].ByVertex {
		sends += vc.SendMsgs
		recvs += vc.RecvMsgs
		colls += vc.CollMsgs
		collBytes += vc.CollBytes
	}
	if sends != 0 || recvs != 3 || colls != 1 || collBytes != 8 {
		t.Errorf("rank 1: send=%d recv=%d coll=%d collBytes=%g, want 0/3/1/8", sends, recvs, colls, collBytes)
	}

	if out.StorageBytes() <= 0 {
		t.Error("no storage accounted")
	}
	var sum int64
	for _, rc := range m.Ranks {
		sum += rc.StorageBytes()
	}
	if sum != out.StorageBytes() {
		t.Errorf("storage sum %d != measurement total %d", sum, out.StorageBytes())
	}

	flows := m.TopFlows(10)
	if len(flows) != 2 || flows[0].Bytes != 300 {
		t.Errorf("top flows = %+v", flows)
	}
}

// ringApp shifts 200 bytes around a 4-rank ring via sendrecv (send to
// next, receive from prev), then overlaps an isend/irecv pair completed
// by waitall. Both patterns have asymmetric peers, which pins the
// direction attribution.
var ringApp = &scalana.App{
	Name: "commmatrix-ring", File: "ring.mp", MinNP: 4,
	Source: `
func main() {
	var np = mpi_size();
	var next = (mpi_rank() + 1) % np;
	var prev = (mpi_rank() + np - 1) % np;
	mpi_sendrecv(next, 5, 200, prev, 5, 200);
	mpi_isend(next, 9, 40);
	mpi_irecv(prev, 9, 40);
	mpi_waitall();
}`,
}

// TestSendrecvAndWaitallAttribution checks the asymmetric-peer paths:
// a sendrecv credits its send half to the send destination and its
// receive half to the matched source, and a waitall counts only the
// completed receives (the isend was already counted at post time).
func TestSendrecvAndWaitallAttribution(t *testing.T) {
	_, m := runMatrix(t, ringApp, 4)
	for r := 0; r < 4; r++ {
		next, prev := (r+1)%4, (r+3)%4
		if got := m.At(r, next); got != 240 {
			t.Errorf("rank %d -> next %d = %g bytes, want 240 (200 sendrecv + 40 isend)", r, next, got)
		}
		if got := m.At(r, prev); got != 200 {
			t.Errorf("rank %d <- prev %d = %g bytes, want 200 (sendrecv recv half; waitall recv skips the matrix)", r, prev, got)
		}
		var vsum commmatrix.VertexComm
		for _, vc := range m.Ranks[r].ByVertex {
			vsum.SendMsgs += vc.SendMsgs
			vsum.RecvMsgs += vc.RecvMsgs
			vsum.SendBytes += vc.SendBytes
			vsum.RecvBytes += vc.RecvBytes
		}
		// 1 sendrecv send half + 1 isend; 1 sendrecv recv half + 1
		// waitall-completed irecv (not the isend's completion).
		if vsum.SendMsgs != 2 || vsum.RecvMsgs != 2 {
			t.Errorf("rank %d msgs: send=%d recv=%d, want 2/2", r, vsum.SendMsgs, vsum.RecvMsgs)
		}
		if vsum.SendBytes != 240 || vsum.RecvBytes != 240 {
			t.Errorf("rank %d bytes: send=%g recv=%g, want 240/240", r, vsum.SendBytes, vsum.RecvBytes)
		}
	}
}

// TestCommMatrixDeterministic: equal seeds give deeply equal matrices on
// a real workload (this container is 1-CPU, so determinism is asserted
// via output identity).
func TestCommMatrixDeterministic(t *testing.T) {
	_, a := runMatrix(t, scalana.GetApp("cg"), 8)
	_, b := runMatrix(t, scalana.GetApp("cg"), 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated commmatrix runs diverged")
	}
	if a.TotalBytes() <= 0 {
		t.Error("cg exchanged no p2p bytes?")
	}
}

// TestToolOptionsReachTheCollector: RunConfig.ToolOptions carries the
// collector config through the registry; an absurd per-record cost must
// show up as measurement perturbation.
func TestToolOptionsReachTheCollector(t *testing.T) {
	app := scalana.GetApp("cg")
	cheap, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 4, ToolName: "commmatrix"})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 4, ToolName: "commmatrix",
		ToolOptions: commmatrix.Config{RecordCost: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if dear.Result.PerturbTotal <= cheap.Result.PerturbTotal {
		t.Errorf("raising RecordCost did not raise perturbation: %g <= %g",
			dear.Result.PerturbTotal, cheap.Result.PerturbTotal)
	}
}

// TestOverheadBelowTracer: the collector's pitch is volume data at less
// than tracing cost on the same run.
func TestOverheadBelowTracer(t *testing.T) {
	app := scalana.GetApp("cg")
	base, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 16})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 16, ToolName: "commmatrix"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scalana.NewEngine().Run(scalana.RunConfig{App: app, NP: 16, ToolName: "tracer"})
	if err != nil {
		t.Fatal(err)
	}
	cmOvh := cm.Result.Elapsed - base.Result.Elapsed
	trOvh := tr.Result.Elapsed - base.Result.Elapsed
	if cmOvh >= trOvh {
		t.Errorf("commmatrix overhead %g should be below tracer %g", cmOvh, trOvh)
	}
	if cm.StorageBytes() >= tr.StorageBytes() {
		t.Errorf("commmatrix storage %d should be below tracer %d", cm.StorageBytes(), tr.StorageBytes())
	}
}
