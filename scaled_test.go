package paragonio_test

// Scaled-machine runs: the paper's Caltech Paragon was a 16x32 mesh with
// 16 I/O nodes, but its future-work section asks how the I/O balance
// holds up as machines grow. These runs put the simulator on a scaled
// mesh — up to 128x128 with 256 I/O nodes, where the I/O nodes occupy
// several mesh columns.

import (
	"fmt"
	"testing"

	"paragonio/internal/core"
	"paragonio/internal/mesh"
	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

// scaledMeshRun executes a staging-style workload on a rows x cols mesh
// with ioNodes I/O nodes: every compute process loops seek/read/write
// rounds against one large striped file at node-distinct offsets, so
// requests fan out across disjoint I/O-node subsets.
func scaledMeshRun(rows, cols, ioNodes, nodes, rounds int) (*core.Result, error) {
	mcfg := mesh.DefaultConfig()
	mcfg.Rows, mcfg.Cols = rows, cols
	cfg := core.Config{
		Nodes:   nodes,
		Mesh:    &mcfg,
		IONodes: ioNodes,
		Seed:    1,
	}
	return core.Run(cfg, "scaled", fmt.Sprintf("%dx%d", rows, cols),
		func(m *workload.Machine, seed int64) error {
			const fileSize = 1 << 30
			m.FS.CreateFile("field", fileSize)
			m.SpawnNodes(seed, func(n *workload.Node) {
				h, err := m.FS.Open(n.P, n.ID, "field", pfs.MAsync)
				if err != nil {
					panic(err)
				}
				h.SetBuffering(false)
				for r := 0; r < rounds; r++ {
					off := (int64(n.ID)*int64(rounds) + int64(r)) * (1 << 20) % fileSize
					if err := h.Seek(n.P, off); err != nil {
						panic(err)
					}
					if _, err := h.Read(n.P, 1<<20); err != nil {
						panic(err)
					}
					if err := h.Seek(n.P, off); err != nil {
						panic(err)
					}
					if _, err := h.Write(n.P, 256<<10); err != nil {
						panic(err)
					}
				}
				h.Close(n.P)
			})
			return nil
		})
}

// TestScaledMeshDigest pins the trace of a 32x32 mesh with 64 I/O
// nodes, a topology bigger than the paper machine whose I/O nodes span
// several mesh columns: the event count, the digest and the virtual
// execution time move only if the scaled machine's model changes.
func TestScaledMeshDigest(t *testing.T) {
	res, err := scaledMeshRun(32, 32, 64, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantEvents = 640
		wantDigest = 0x8322de371b39e51f
		wantExec   = 32115380200 // ns
	)
	if n := res.Trace.Len(); n != wantEvents {
		t.Errorf("trace has %d events, want %d", n, wantEvents)
	}
	if d := res.Trace.Digest(); d != wantDigest {
		t.Errorf("digest %#016x, want %#016x", d, uint64(wantDigest))
	}
	if res.Exec != wantExec {
		t.Errorf("virtual exec %v, want 32.1153802s", res.Exec)
	}
}

// BenchmarkScaledMesh times one run on the scaled machine: a 128x128
// mesh with 256 I/O nodes and 256 compute processes.
func BenchmarkScaledMesh(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		res, err := scaledMeshRun(128, 128, 256, 256, 4)
		if err != nil {
			b.Fatal(err)
		}
		v = res.Exec.Seconds()
	}
	b.ReportMetric(v, "virtual_s")
}
