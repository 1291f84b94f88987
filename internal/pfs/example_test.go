package pfs_test

import (
	"fmt"

	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/sim"
)

// Example shows the basic workflow: build a machine, open a striped file
// in an access mode, and move data under virtual time.
func Example() {
	k := sim.NewKernel()
	m, err := mesh.New(mesh.DefaultConfig())
	if err != nil {
		panic(err)
	}
	tr := pablo.NewTrace()
	fs, err := pfs.New(k, pfs.DefaultConfig(m), tr)
	if err != nil {
		panic(err)
	}
	fs.CreateFile("data", 1<<20)

	k.Spawn("app", func(p *sim.Proc) {
		h, err := fs.Open(p, 0, "data", pfs.MAsync)
		if err != nil {
			panic(err)
		}
		n, _ := h.Read(p, 128<<10) // two stripe units
		fmt.Printf("read %d KB\n", n>>10)
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("traced %d operations\n", tr.Len())
	// Output:
	// read 128 KB
	// traced 3 operations
}

// ExampleGroup_Gopen demonstrates a collective open and an M_GLOBAL read:
// four nodes receive the same data from a single disk I/O.
func ExampleGroup_Gopen() {
	k := sim.NewKernel()
	m, _ := mesh.New(mesh.DefaultConfig())
	fs, _ := pfs.New(k, pfs.DefaultConfig(m), nil)
	fs.CreateFile("input", 1<<20)
	g, _ := fs.NewGroup([]int{0, 1, 2, 3})
	for _, id := range g.Nodes() {
		id := id
		k.Spawn("node", func(p *sim.Proc) {
			h, err := g.Gopen(p, id, "input", pfs.MGlobal)
			if err != nil {
				panic(err)
			}
			h.Read(p, 4096)
			h.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	var reqs uint64
	for _, s := range fs.IONodeStats() {
		reqs += s.Requests
	}
	fmt.Printf("4 nodes read the same block with %d disk request(s)\n", reqs)
	// Output:
	// 4 nodes read the same block with 1 disk request(s)
}
