// Command epochledger is dcfp's end-to-end benchmark. One closed-loop feeder
// generates each 15-minute epoch with dcsim.Stream, hands it to the system,
// and sends the next epoch only after the previous call returns; only the
// system's public calls are timed, never the load generator.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash epochledger/run.sh --workload crisis-replay --seed 42 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures an untraced half, replays the same epochs with a
// telemetry.Tracer and Registry attached, reports per-layer metrics, and
// writes the traced epochs' timeline CSV and spans under --out. The last
// line of standard output is one JSON object; README.md defines every
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"dcfp/internal/crisis"
	"dcfp/internal/monitor"
	"dcfp/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times a run times set-up; setup_s is the median.
const setupRepeats = 11

// maxNotes bounds how many failures a run describes on standard error.
const maxNotes = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epochledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "crisis-replay, steady-2000 or fleet-2shard")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replay")
	out := fs.String("out", ".bench_build/epochledger", "directory for the traced run's timeline and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "epochledger: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	r := &runner{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), stderr: stderr}
	var res *result
	if *trace == 1 {
		res, err = r.traced(*out)
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "epochledger:", err)
		return 1
	}
	res.print(stdout, w.name, *seed, *trace)
	return 0
}

// runner measures one workload from one seed.
type runner struct {
	w      workload
	seed   int64
	budget time.Duration
	stderr io.Writer
	// plant is handed to fleet systems (see fleetNode.plant).
	plant func(*monitor.EpochReport)
	notes int
}

// phase is the outcome of one measured sequence of passes.
type phase struct {
	recs []epochRec
	// plan is how many epochs each pass ran.
	plan                    []int
	scored, correct, stored int
	frameBytes, frames      int
	forced                  int
	probe                   *probe
}

func (ph *phase) failed() int {
	n := 0
	for _, r := range ph.recs {
		if r.failed {
			n++
		}
	}
	return n
}

func (r *runner) note(p, e int, err error) {
	if r.notes < maxNotes {
		fmt.Fprintf(r.stderr, "epochledger: %s pass %d epoch %d: %v\n", r.w.name, p, e, err)
	}
	r.notes++
}

// measure runs passes of the workload. With a nil plan it runs until the
// budget has elapsed and then on to the next pass end or crisis close, so a
// run never ends part-way through a crisis cycle. With a plan it replays
// exactly plan[p] epochs of pass p.
func (r *runner) measure(plan []int, in instruments) (*phase, error) {
	ph := &phase{probe: &probe{in: in}}
	m := &meter{own: in.own}
	stop := time.Now().Add(r.budget)
	timeUp := func() bool { return plan == nil && len(ph.recs) > 0 && time.Now().After(stop) }
	for p := 0; plan == nil || p < len(plan); p++ {
		limit := r.w.passEpochs()
		if plan != nil {
			limit = plan[p]
		}
		// Collect the previous pass's system first, so peak RSS measures
		// one system rather than when the collector happened to run.
		runtime.GC()
		sys, s, err := r.w.setup(passSeed(r.seed, p), in)
		if err != nil {
			return nil, err
		}
		if f, ok := sys.(*fleetNode); ok {
			f.plant = r.plant
		}
		op := newOperator()
		first := len(ph.recs)
		for e := 0; e < limit; e++ {
			if timeUp() && e > 0 && ph.recs[len(ph.recs)-1].class == classClose {
				break
			}
			ph.recs = append(ph.recs, epochRec{pass: p, epoch: e})
			idx := len(ph.recs) - 1
			rec := &ph.recs[idx]
			m.begin(p, e, rec)
			var rows [][]float64
			var act *crisis.Instance
			if err := m.generate(func() (err error) {
				rows, act, err = s.Next()
				return err
			}); err != nil {
				return nil, fmt.Errorf("generating pass %d epoch %d: %w", p, e, err)
			}
			rep, err := sys.step(e, rows, act, m)
			if err != nil {
				rec.failed = true
				r.note(p, e, err)
			}
			if rep != nil {
				class, due := op.observe(e, rep, act, sys.primary(), idx)
				rec.class = class
				for _, d := range due {
					if err := sys.resolve(d.id, d.label, m); err != nil {
						rec.failed = true
						r.note(p, e, err)
						continue
					}
					op.record(sys.primary(), d.id, d.label)
				}
			}
			ph.probe.epoch(rec)
			m.end()
		}
		ph.plan = append(ph.plan, len(ph.recs)-first)
		mon := sys.primary()
		mon.Flush()
		for _, i := range op.lifecycleFailures(mon, len(ph.recs)-1) {
			ph.recs[i].failed = true
			r.note(ph.recs[i].pass, ph.recs[i].epoch, errors.New("detected crisis not closed, not stored, or matching no injected crisis"))
		}
		ph.scored += op.scored
		ph.correct += op.correct
		ph.stored += mon.Stats().StoreSize
		if f, ok := sys.(*fleetNode); ok {
			ph.frameBytes += f.frameBytes
			ph.frames += f.frames
			ph.forced += f.forced
		}
		if timeUp() {
			break
		}
	}
	return ph, nil
}

// endToEnd is a --trace 0 run: set-up timed setupRepeats times, then one
// untraced measurement.
func (r *runner) endToEnd() (*result, error) {
	setups := make([]float64, setupRepeats)
	for i := range setups {
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		if _, _, err := r.w.setup(passSeed(r.seed, 0), instruments{}); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	ph, err := r.measure(nil, instruments{})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: len(ph.recs), failed: ph.failed(), passes: len(ph.plan)}
	lat := latenciesMS(ph.recs, "")
	total := 0.0
	var alloc uint64
	for _, rec := range ph.recs {
		total += rec.latency.Seconds()
		alloc += rec.alloc
	}
	n := len(ph.recs)
	res.add(true, "setup_s", median(setups), "s", "lower", len(setups))
	res.add(true, "epochs_per_s", float64(n)/total, "1/s", "higher", n)
	res.add(true, "epoch_p50_ms", quantile(lat, 0.5), "ms", "lower", n)
	res.add(true, "epoch_p90_ms", quantile(lat, 0.9), "ms", "lower", n)
	res.add(true, "alloc_kb_per_epoch", float64(alloc)/1024/float64(n), "KiB", "lower", n)
	res.add(true, "peak_rss_mb", rss, "MiB", "lower", 1)
	if adv := latenciesMS(ph.recs, classAdvice); len(adv) > 0 {
		res.add(false, "advice_p50_ms", quantile(adv, 0.5), "ms", "lower", len(adv))
	}
	if cl := latenciesMS(ph.recs, classClose); len(cl) > 0 {
		res.add(false, "close_p50_s", quantile(cl, 0.5)/1000, "s", "lower", len(cl))
	}
	if ph.scored > 0 {
		res.add(false, "ident_accuracy", float64(ph.correct)/float64(ph.scored), "frac", "higher", ph.scored)
	}
	res.add(false, "failed_frac", float64(res.failed)/float64(n), "frac", "lower", n)
	return res, nil
}

// traced is a --trace 1 run: an untraced half-budget measurement, then a
// replay of exactly the same epochs with the program's tracer and registry
// attached and the feeder's own spans recorded.
func (r *runner) traced(out string) (*result, error) {
	r.budget /= 2
	base, err := r.measure(nil, instruments{})
	if err != nil {
		return nil, err
	}
	n := len(base.recs)
	shards := max(r.w.shards, 1)
	in := instruments{
		reg:   telemetry.NewRegistry(),
		prog:  telemetry.NewTracer(n),
		shard: telemetry.NewTracer(n * shards),
		own:   telemetry.NewTracer(n),
	}
	ph, err := r.measure(base.plan, in)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeTimeline(artifactPath(out, r.w.name, r.seed, "-timeline.csv"), ph.recs); err != nil {
		return nil, err
	}
	if err := writeSpans(artifactPath(out, r.w.name, r.seed, "-spans.json"), in); err != nil {
		return nil, err
	}
	res := &result{attempted: n + len(ph.recs), failed: base.failed() + ph.failed(), passes: len(ph.plan)}
	var sum [numCols]float64
	var next, latency, baseLatency float64
	for _, rec := range ph.recs {
		for c, v := range rec.cols {
			sum[c] += v
		}
		next += rec.next.Seconds()
		latency += rec.latency.Seconds()
	}
	for _, rec := range base.recs {
		baseLatency += rec.latency.Seconds()
	}
	ne := len(ph.recs)
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reg := in.reg
	stage := func(s string) telemetry.Label { return telemetry.Label{Key: "stage", Value: s} }
	hits := counter(reg, "dcfp_fingerprint_cache_total", telemetry.Label{Key: "result", Value: "hit"})
	misses := counter(reg, "dcfp_fingerprint_cache_total", telemetry.Label{Key: "result", Value: "miss"})
	res.add(true, "logreg.selection_share", share(sum[colSelection], sum[colObserve]), "frac", "lower", ne)
	res.add(true, "logreg.selection_count", counter(reg, "dcfp_monitor_stage_seconds_count", stage("selection")), "count", "lower", ne)
	res.add(true, "metrics.quantile_s", sum[colQuantile], "s", "lower", ne)
	res.add(true, "metrics.filter_s", sum[colFilter], "s", "lower", ne)
	res.add(true, "metrics.summarize_s", sum[colSummarize], "s", "lower", ne)
	res.add(true, "sla.sla_s", sum[colSLA], "s", "lower", ne)
	res.add(true, "metrics.thresholds_s", sum[colThresholds], "s", "lower", ne)
	res.add(true, "metrics.thresholds_count", counter(reg, "dcfp_monitor_stage_seconds_count", stage("thresholds")), "count", "lower", ne)
	res.add(true, "core.fingerprint_share", share(sum[colFingerprint], sum[colObserve]), "frac", "lower", ne)
	res.add(true, "core.match_share", share(sum[colMatch], sum[colObserve]), "frac", "lower", ne)
	res.add(true, "core.match_candidates", share(float64(ph.probe.candidates), float64(ph.probe.matches)), "count", "lower", int(ph.probe.matches))
	res.add(true, "core.cache_hit_ratio", share(hits, hits+misses), "frac", "higher", int(hits+misses))
	res.add(true, "ident.advise_share", share(sum[colAdvise], sum[colObserve]), "frac", "lower", ne)
	res.add(true, "forecast.forecast_s", sum[colForecast], "s", "lower", ne)
	res.add(true, "fleet.epoch_frame_share", share(sum[colEpochFrame], latency), "frac", "lower", ne)
	res.add(true, "fleet.handle_frame_share", share(sum[colHandleFrame], latency), "frac", "lower", ne)
	res.add(true, "fleet.merge_share", share(sum[colMerge], latency), "frac", "lower", ne)
	res.add(true, "fleet.frame_bytes", share(float64(ph.frameBytes), float64(ph.frames)), "B", "lower", ph.frames)
	res.add(true, "fleet.forced_flushes", float64(ph.forced), "count", "lower", ne)
	res.add(true, "monitor.observe_s", sum[colObserve], "s", "lower", ne)
	res.add(true, "monitor.unattributed_s", sum[colUnattributed], "s", "lower", ne)
	res.add(true, "monitor.crises_detected", counter(reg, "dcfp_crises_detected_total"), "count", "lower", ne)
	res.add(true, "monitor.crises_stored", float64(ph.stored), "count", "lower", ne)
	res.add(true, "monitor.advice_emitted",
		counter(reg, "dcfp_advice_emitted_total", telemetry.Label{Key: "verdict", Value: "known"})+
			counter(reg, "dcfp_advice_emitted_total", telemetry.Label{Key: "verdict", Value: "unknown"}), "count", "lower", ne)
	res.add(true, "metrics.values_dropped", counter(reg, "dcfp_ingest_values_dropped_total"), "count", "lower", ne)
	res.add(true, "metrics.metric_gaps", counter(reg, "dcfp_ingest_metric_gaps_total"), "count", "lower", ne)
	res.add(true, "dcsim.next_ms", next*1000/float64(ne), "ms", "lower", ne)
	res.add(true, "telemetry.tracing_overhead_frac", 1-baseLatency/latency, "frac", "lower", ne)
	res.add(true, "trace.epochs", float64(ne), "count", "higher", ne)
	return res, nil
}

// metric is one named measurement.
type metric struct {
	name, unit, better string
	value              float64
	samples            int
}

// result is what a run prints. Only the gated metrics go into the final
// JSON line; extra ones apply to some workloads only and are printed in
// the table above it.
type result struct {
	attempted, failed, passes int
	gated, extra              []metric
}

func (r *result) add(gated bool, name string, value float64, unit, better string, samples int) {
	m := metric{name: name, unit: unit, better: better, value: value, samples: samples}
	if gated {
		r.gated = append(r.gated, m)
	} else {
		r.extra = append(r.extra, m)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) print(w io.Writer, name string, seed int64, trace int) {
	fmt.Fprintf(w, "epochledger workload=%s seed=%d trace=%d passes=%d attempted=%d failed=%d\n",
		name, seed, trace, r.passes, r.attempted, r.failed)
	fmt.Fprintf(w, "%-34s %16s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "samples")
	jr := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range append(append([]metric(nil), r.gated...), r.extra...) {
		fmt.Fprintf(w, "%-34s %16s  %-6s %-7s %d\n", m.name, fmtFloat(m.value), m.unit, m.better, m.samples)
	}
	for _, m := range r.gated {
		jr.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	// Every value is finite (no ratio here can divide by zero), so
	// encoding cannot fail.
	b, _ := json.Marshal(jr)
	fmt.Fprintf(w, "%s\n", b)
}

// latenciesMS returns the sorted epoch latencies in milliseconds of the
// records of one class ("" = all).
func latenciesMS(recs []epochRec, class string) []float64 {
	var out []float64
	for _, r := range recs {
		if class == "" || r.class == class {
			out = append(out, ms(r.latency))
		}
	}
	sort.Float64s(out)
	return out
}
