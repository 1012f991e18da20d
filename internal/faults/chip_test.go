package faults

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/graph"
)

func TestDrawChipFaultsDeterministicAndBounded(t *testing.T) {
	g := smallGraph()
	a := fleet.PartitionBFS(g, 8)
	c1 := DrawChipFaults(a, 11, 0.3, 0.2)
	c2 := DrawChipFaults(a, 11, 0.3, 0.2)
	if len(c1.Dead) != len(c2.Dead) || len(c1.Severed) != len(c2.Severed) {
		t.Fatal("same seed drew different chip faults")
	}
	for i := range c1.Dead {
		if c1.Dead[i] != c2.Dead[i] {
			t.Fatal("dead sets diverge")
		}
	}
	if len(c1.Dead) >= a.Chips {
		t.Fatalf("all %d chips dead", a.Chips)
	}
	c3 := DrawChipFaults(a, 12, 0.3, 0.2)
	if len(c3.Dead) == len(c1.Dead) {
		same := true
		for i := range c1.Dead {
			if c1.Dead[i] != c3.Dead[i] {
				same = false
			}
		}
		if same && len(c1.Severed) == len(c3.Severed) {
			t.Log("adjacent seeds drew the same faults (possible but unlikely)")
		}
	}
}

func TestDrawChipFaultsAlwaysSparesOneChip(t *testing.T) {
	g := smallGraph()
	a := fleet.PartitionBFS(g, 8)
	cf := DrawChipFaults(a, 1, 1, 0) // every draw kills
	if len(cf.Dead) != a.Chips-1 {
		t.Fatalf("%d dead of %d chips; exactly one must survive", len(cf.Dead), a.Chips)
	}
}

func TestChipFaultsDeadChipSilencesResidents(t *testing.T) {
	g := smallGraph()
	a := fleet.PartitionBFS(g, 8)
	// Kill every chip except the source's: only its residents can fire.
	srcChip := a.Chip[0]
	cf := &ChipFaults{Assignment: a, deadSet: map[int]bool{}, sevSet: map[[2]int]bool{}}
	for c := 0; c < a.Chips; c++ {
		if c != srcChip {
			cf.deadSet[c] = true
			cf.Dead = append(cf.Dead, c)
		}
	}
	res, err := core.BuildSSSP(g).RunBudgeted(0, -1, cf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if a.Chip[v] != srcChip && res.Dist[v] < graph.Inf {
			t.Fatalf("vertex %d on dead chip %d fired", v, a.Chip[v])
		}
	}
	if cf.DroppedLinks == 0 {
		t.Fatal("no deliveries dropped at dead chips")
	}
}

func TestChipFaultsSeveredLinkDropsOnlyCrossTraffic(t *testing.T) {
	// Two components on two chips, plus a cross edge; severing the 0-1
	// link must strand the far side while intra-chip routing still works.
	g := graph.New(4)
	g.AddEdge(0, 1, 1) // intra chip 0
	g.AddEdge(1, 2, 1) // crosses to chip 1
	g.AddEdge(2, 3, 1) // intra chip 1
	a := &fleet.Assignment{Chip: []int{0, 0, 1, 1}, Chips: 2, Capacity: 2}
	cf := &ChipFaults{
		Assignment: a,
		deadSet:    map[int]bool{},
		sevSet:     map[[2]int]bool{{0, 1}: true},
		Severed:    [][2]int{{0, 1}},
	}
	res, err := core.BuildSSSP(g).RunBudgeted(0, -1, cf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1] != 1 {
		t.Fatalf("intra-chip hop broken: dist[1]=%d", res.Dist[1])
	}
	if res.Dist[2] < graph.Inf || res.Dist[3] < graph.Inf {
		t.Fatalf("severed link still delivered: dist=%v", res.Dist)
	}
	if cf.DroppedLinks != 1 {
		t.Fatalf("dropped %d link deliveries, want 1", cf.DroppedLinks)
	}
}

func TestRecoverAndRerun(t *testing.T) {
	g := smallGraph()
	a := fleet.PartitionBFS(g, 8) // BFS packs chips full: no headroom
	// A placement with spare capacity (5 chips x 16 slots for 64 vertices).
	loose := &fleet.Assignment{Chip: make([]int, g.N()), Chips: 5, Capacity: 16}
	for v := range loose.Chip {
		loose.Chip[v] = v % 5
	}
	run, err := RecoverAndRerun(g, loose, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recovery.Migrated == 0 || run.Recovery.MigrationTraffic == 0 {
		t.Fatalf("chip 0 held vertices but nothing migrated: %+v", run.Recovery)
	}
	for v, c := range run.Recovery.Survivor.Chip {
		if c == 0 {
			t.Fatalf("vertex %d still on dead chip 0", v)
		}
	}
	if run.TotalInterChip != run.Traffic.InterChip+run.Recovery.MigrationTraffic {
		t.Fatalf("migration bill not charged: %+v", run)
	}
	// The re-run is on intact hardware: distances must be exact.
	want := mustDist(t, g)
	if !distEqual(run.Res.Dist, want) {
		t.Fatal("recovered run produced wrong distances")
	}

	// A fully packed assignment has no spare capacity: recovery must
	// refuse rather than overload surviving chips.
	if _, err := RecoverAndRerun(g, a, []int{0}, 0); err == nil {
		t.Fatal("recovery onto full chips accepted")
	}
}

func mustDist(t *testing.T, g *graph.Graph) []int64 {
	t.Helper()
	res, err := core.SSSP(g, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Dist
}
