package protocols

import (
	"testing"
)

// The sim-engine chaos acceptance: every protocol, both implementations,
// every fault-injecting nemesis, a seed spread — zero safety violations,
// and a decision everywhere the nemesis doesn't excuse one.

// ChaosNemeses is the subset of Nemeses that actually injects faults (the
// acceptance matrix of cmd/mproto).
var ChaosNemeses = []string{NemesisDrop, NemesisPartition, NemesisLeaderCrash, NemesisStorm}

func chaosSeeds(t *testing.T) []uint64 {
	n := 8
	if testing.Short() {
		n = 3
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

func TestChaosSweepSim(t *testing.T) {
	results, err := Sweep(SweepConfig{
		Engine:    EngineSim,
		Protocols: Protocols,
		Impls:     Impls,
		Nemeses:   ChaosNemeses,
		Seeds:     chaosSeeds(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Failed() {
			t.Errorf("%s/%s/%s seed %d: decided=%v (expected %v) err=%q violations=%+v",
				res.Config.Protocol, res.Config.Impl, res.Config.Nemesis, res.Config.Seed,
				res.Decided, res.Expected, res.Err, res.Violations)
		}
	}
}

// A sim run is a pure function of its config: same seed, same events.
func TestChaosRunDeterministic(t *testing.T) {
	cfg := RunConfig{
		Protocol: ProtoPaxos, Impl: ImplMessengers, Engine: EngineSim,
		Nemesis: NemesisDrop, Seed: 5,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Rounds != b.Rounds || a.Cost != b.Cost || a.Decided != b.Decided {
		t.Errorf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	cfg.Impl = ImplPVM
	a, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Rounds != b.Rounds || a.Cost != b.Cost || a.Decided != b.Decided {
		t.Errorf("pvm replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}
