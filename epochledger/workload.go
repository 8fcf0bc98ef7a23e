package main

import (
	"fmt"
	"math/rand"

	"dcfp/internal/crisis"
	"dcfp/internal/dcsim"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

// workload is one input set the ledger runs, as fixed-length passes: each
// pass is a fresh system fed a fresh seeded trace. Passes bound the work a
// run can pile up — the crisis store, and the history the threshold
// refresh scans — so a faster program runs more passes of the same work
// rather than later, costlier epochs.
type workload struct {
	name     string
	machines int
	// shards > 0 drives that many fleet aggregators and one coordinator
	// instead of a single monitor.
	shards int
	// crises is the number of scripted crises per pass; 0 = none.
	crises int
	// epochs is the pass length of a crisis-free workload.
	epochs int
}

// workloads are the ledger's inputs. Why each exists is recorded in
// BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "crisis-replay", machines: 100, crises: 5},
	{name: "steady-2000", machines: 2000, epochs: 240},
	{name: "fleet-2shard", machines: 1000, shards: 2, epochs: 240},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Trace and monitor geometry: the seeded equivalence trace of the monitor
// tests (48-epoch warm-up, thresholds from epoch 96 refreshed every 48),
// with crises on a fixed cadence.
const (
	warmupEpochs   = 48
	thresholdsFrom = 96
	refreshEvery   = 48
	// firstCrisis lands after the first threshold refresh, so every
	// crisis can be stored and fingerprinted.
	firstCrisis = 104
	// crisisLen and crisisGap fix each crisis at the midpoint of the
	// stream's default 8–16 epoch duration and the trace's mean gap of 24.
	// A fixed cadence gives every seed the same number of crisis closes
	// per pass, so seeds differ in content, not in amount of work.
	crisisLen = 12
	crisisGap = 24
	// closeSlack is how many epochs a pass runs past its last crisis's
	// end: the monitor closes a crisis after two calm epochs.
	closeSlack = 6
	// resolveAfter is how many epochs after a crisis closes the operator
	// files its ground-truth label, as cmd/dcfpd's -resolve-after does.
	resolveAfter = 24
	// noCrisisWarmup keeps crisis-free workloads crisis-free: the warm-up
	// outlasts any pass.
	noCrisisWarmup = 1 << 24
)

// crisisPool is the small type pool scripted crises draw from, so later
// crises in a pass repeat earlier ones and identification has labelled
// candidates to match.
var crisisPool = []crisis.Type{crisis.TypeB, crisis.TypeC}

// passSeed derives pass p's trace seed; pass 0 uses the run's seed.
func passSeed(seed int64, p int) int64 { return seed + int64(p)*1_000_003 }

// passEpochs is the length of every pass.
func (w workload) passEpochs() int {
	if w.crises == 0 {
		return w.epochs
	}
	return firstCrisis + (w.crises-1)*(crisisLen+crisisGap) + crisisLen + closeSlack
}

// streamConfig builds the load generator's configuration for one pass.
func (w workload) streamConfig(seed int64) dcsim.StreamConfig {
	scfg := dcsim.DefaultStreamConfig(seed)
	scfg.Machines = w.machines
	scfg.WarmupEpochs = warmupEpochs
	scfg.MeanGapEpochs = crisisGap
	if w.crises == 0 {
		scfg.WarmupEpochs = noCrisisWarmup
		return scfg
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.crises; i++ {
		scfg.Script = append(scfg.Script, dcsim.ScriptedCrisis{
			Start:    metrics.Epoch(firstCrisis + i*(crisisLen+crisisGap)),
			Duration: crisisLen,
			Type:     crisisPool[rng.Intn(len(crisisPool))],
		})
	}
	return scfg
}

// instruments are what a traced phase attaches to the program. All nil in
// an untraced phase.
type instruments struct {
	reg *telemetry.Registry
	// prog receives the monitor's observe_epoch traces, or the
	// coordinator's merge_epoch traces in fleet mode.
	prog *telemetry.Tracer
	// shard receives the aggregators' observe_shard traces.
	shard *telemetry.Tracer
	// own receives the feeder's spans around each public call it makes.
	own *telemetry.Tracer
}

// monitorConfig is the monitor every workload runs: serial reference path,
// forecast stage on as in cmd/dcfpd.
func monitorConfig(s *dcsim.Stream, in instruments) monitor.Config {
	cfg := monitor.DefaultConfig(s.Catalog(), s.SLA())
	cfg.ThresholdRefreshEpochs = refreshEvery
	cfg.MinEpochsForThresholds = thresholdsFrom
	cfg.Workers = 1
	cfg.Forecast = monitor.DefaultForecastConfig()
	cfg.Telemetry = in.reg
	cfg.Tracer = in.prog
	return cfg
}

// setup builds the load generator and the system for one pass. It is what
// setup_s times.
func (w workload) setup(seed int64, in instruments) (system, *dcsim.Stream, error) {
	s, err := dcsim.NewStream(w.streamConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	mon, err := monitor.New(monitorConfig(s, in))
	if err != nil {
		return nil, nil, err
	}
	if w.shards == 0 {
		return &node{mon: mon}, s, nil
	}
	ref, err := monitor.New(monitorConfig(s, instruments{}))
	if err != nil {
		return nil, nil, err
	}
	f := &fleetNode{mon: mon, ref: ref}
	f.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Machines: w.machines,
		Shards:   w.shards,
		Monitor:  mon,
		// The feeder flushes explicitly, so merges never wait on a clock.
		FlushAfter: -1,
		OnReport: func(rep *monitor.EpochReport, _ *crisis.Instance) {
			f.reps = append(f.reps, rep)
		},
		Telemetry: in.reg,
		Tracer:    in.prog,
	})
	if err != nil {
		return nil, nil, err
	}
	for sh := 0; sh < w.shards; sh++ {
		g, err := fleet.NewAggregator(fleet.AggregatorConfig{
			Shard:      sh,
			Shards:     w.shards,
			Machines:   w.machines,
			NumMetrics: s.Catalog().Len(),
			SLA:        s.SLA(),
			Tracer:     in.shard,
		})
		if err != nil {
			return nil, nil, err
		}
		f.aggs = append(f.aggs, g)
	}
	return f, s, nil
}
