package protocols

import (
	"fmt"

	"messengers/internal/faults"
	"messengers/internal/sim"
)

// The nemesis catalog: named, targeted fault schedules for protocol runs.
// Each nemesis is a function of (seed, engine) so a seed sweep samples many
// distinct timings — leader crashes land at different phase boundaries,
// partitions cut different daemons — while any single (nemesis, seed,
// engine) triple replays identically.
//
// Two standing rules keep liveness meaningful (docs/FAULTS.md):
//   - every partition heals and every crash restarts: an unhealed cut
//     would stall retransmission forever and the run would never quiesce;
//   - only daemon 0 — the protocol's leader (Paxos proposer 0, the 2PC
//     coordinator, termination's GVT pacer) — is ever crashed. Acceptor,
//     participant, and worker node variables are the protocols' stable
//     storage; crashing them is the known-unsafe case (a Paxos acceptor
//     that forgets its promises), which the suite demonstrates separately
//     with a broken script, not with the nemesis.
const (
	NemesisNone        = "none"
	NemesisDrop        = "drop"
	NemesisPartition   = "partition"
	NemesisLeaderCrash = "leadercrash"
	NemesisStorm       = "storm"
)

// Nemeses is the catalog in sweep order.
var Nemeses = []string{NemesisNone, NemesisDrop, NemesisPartition, NemesisLeaderCrash, NemesisStorm}

func mixNem(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NemesisPlan builds the named fault plan for one seeded run. daemons is
// the protocol's daemon count (partitions pick a victim from it). Real
// engines get stretched timings: heartbeat failure detection takes ~250ms
// of wall time where the sim's scheduled notices take 2ms of simulated
// time. Returns nil for NemesisNone.
func NemesisPlan(name string, seed uint64, daemons int, engine string) (*faults.Plan, error) {
	if name == NemesisNone {
		return nil, nil
	}
	ms := int64(sim.Millisecond)
	// Timing profile: base unit for fault windows.
	crashAt := (1 + int64(mixNem(seed)%12)) * ms // sim: 1..12ms, mid-protocol
	crashRestart := 10 * ms                      //
	partAt := (1 + int64(mixNem(seed+1)%8)) * ms //
	partHeal := partAt + 15*ms                   //
	stormAt, stormUntil := 2*ms, 14*ms           //
	delay := ms                                  //
	detect := 2 * ms                             //
	if engine == EngineReal {
		crashAt = (30 + int64(mixNem(seed)%10)*30) * ms // 30..300ms wall
		crashRestart = 600 * ms                         // after heartbeat detection
		partAt = (20 + int64(mixNem(seed+1)%8)*20) * ms //
		partHeal = partAt + 400*ms                      //
		stormAt, stormUntil = 30*ms, 300*ms             //
		delay = 2 * ms                                  //
		detect = 0                                      // heartbeats detect instead
	}
	p := &faults.Plan{Seed: seed, DetectDelay: detect}
	switch name {
	case NemesisDrop:
		p.Drop, p.Dup = 0.15, 0.05
		p.DelayProb, p.Delay = 0.10, delay
	case NemesisPartition:
		// Cut one daemon out of the network for a window; every other
		// seed's cut is asymmetric (outbound-only), exercising the one-way
		// fault the recovery layer must also survive.
		victim := int(mixNem(seed+2) % uint64(daemons))
		p.Partitions = []faults.Partition{{
			At: partAt, Heal: partHeal, Group: []int{victim}, OneWay: seed%2 == 1,
		}}
	case NemesisLeaderCrash:
		p.Crashes = []faults.Crash{{Daemon: 0, At: crashAt, RestartAfter: crashRestart}}
	case NemesisStorm:
		// A congestion burst: heavy loss, duplication, and latency inside
		// the window, clean outside it.
		p.Storms = []faults.Storm{{
			At: stormAt, Until: stormUntil, Drop: 0.5, Dup: 0.2, DelayProb: 0.3, Delay: delay,
		}}
	default:
		return nil, fmt.Errorf("protocols: unknown nemesis %q", name)
	}
	if err := p.Validate(daemons); err != nil {
		return nil, err
	}
	return p, nil
}
