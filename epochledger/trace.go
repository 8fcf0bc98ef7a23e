package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"dcfp/internal/telemetry"
)

// Epoch classes of the timeline, by the extra work the epoch ran.
const (
	classSteady  = "steady"
	classAdvice  = "advice"            // identification emitted advice
	classClose   = "close"             // a crisis closed: storage and §3.4 selection
	classRefresh = "threshold-refresh" // hot/cold thresholds re-estimated
)

// Per-epoch time columns, in seconds. The first group is the feeder's own
// timing of the public calls it makes; the second is read from the
// program's histograms and spans, in traced phases only.
const (
	colObserveCall = iota
	colEpochFrame
	colHandleFrame
	colForceFlush
	colResolve

	colObserve
	colQuantile
	colFilter
	colSummarize
	colSLA
	colForecast
	colThresholds
	colSelection
	colIdentify
	colFingerprint
	colMatch
	colAdvise
	colMerge
	colUnattributed
	numCols
)

var colNames = [numCols]string{
	"observe_epoch_call", "epoch_frame", "handle_frame", "force_flush", "resolve_crisis",
	"observe", "quantile", "filter", "summarize", "sla", "forecast", "thresholds",
	"selection", "identify", "fingerprint", "match", "advise", "merge", "unattributed",
}

// epochRec is everything the ledger keeps about one epoch.
type epochRec struct {
	pass, epoch int
	class       string
	failed      bool
	// latency is the summed duration of the system calls the epoch made;
	// next is the load generator's time, outside every timed region.
	latency, next time.Duration
	// alloc is the heap bytes allocated inside the timed calls.
	alloc uint64
	cols  [numCols]float64
}

// meter times the system's public calls for one epoch. Each call is
// bracketed by runtime.ReadMemStats, so allocation is charged to the
// system's calls only, never to the load generator or to the fleet's
// reference monitor. With an own tracer it also records one span per call,
// all under one trace per epoch.
type meter struct {
	own *telemetry.Tracer
	tr  *telemetry.Trace
	rec *epochRec
	ms  runtime.MemStats
}

func (m *meter) begin(p, e int, rec *epochRec) {
	m.rec = rec
	m.tr = m.own.StartTraceID("epoch", epochID(p, e))
	m.tr.SetAttr("pass", int64(p))
	m.tr.SetAttr("epoch", int64(e))
}

func (m *meter) end() {
	m.tr.End()
	m.tr, m.rec = nil, nil
}

// epochID is the trace ID shared by every span of pass p's epoch e.
func epochID(p, e int) uint64 { return telemetry.EpochTraceID(int64(p)<<32 | int64(e)) }

// generate runs the load generator for the epoch, untimed.
func (m *meter) generate(fn func() error) error {
	sp := m.tr.StartSpan("Stream.Next")
	t0 := time.Now()
	err := fn()
	m.rec.next = time.Since(t0)
	sp.End()
	return err
}

// call times one public call of the system into the epoch's latency.
func (m *meter) call(name string, col int, fn func() error) error {
	runtime.ReadMemStats(&m.ms)
	a0 := m.ms.TotalAlloc
	sp := m.tr.StartSpan(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&m.ms)
	m.rec.latency += d
	m.rec.alloc += m.ms.TotalAlloc - a0
	m.rec.cols[col] += d.Seconds()
	return err
}

// histCol maps a program histogram's running sum to a timeline column.
type histCol struct {
	col    int
	name   string
	labels []telemetry.Label
}

func stageCol(col int, stage string) histCol {
	return histCol{col, "dcfp_monitor_stage_seconds_sum", []telemetry.Label{{Key: "stage", Value: stage}}}
}

var histCols = []histCol{
	{colObserve, "dcfp_observe_epoch_seconds_sum", nil},
	stageCol(colQuantile, "quantile"),
	stageCol(colSLA, "sla"),
	stageCol(colForecast, "forecast"),
	stageCol(colThresholds, "thresholds"),
	stageCol(colSelection, "selection"),
	stageCol(colIdentify, "identify"),
	{colMerge, "dcfp_fleet_merge_seconds_sum", nil},
}

// attributed are the stage histograms that partition ObserveEpoch time;
// whatever observe time they leave is the unattributed column.
var attributed = []int{colQuantile, colSLA, colForecast, colThresholds, colSelection, colIdentify}

var spanCols = map[string]int{
	"filter":      colFilter,
	"summarize":   colSummarize,
	"fingerprint": colFingerprint,
	"match":       colMatch,
	"advise":      colAdvise,
}

// probe reads the program's own instrumentation from outside after every
// epoch of a traced phase: histogram sums become per-epoch deltas, and the
// epoch's program trace is split into per-stage span time.
type probe struct {
	in        instruments
	last      [numCols]float64
	lastTrace uint64
	// candidates sums the candidates attribute of match spans.
	candidates, matches int64
}

func (p *probe) epoch(rec *epochRec) {
	if p.in.reg == nil {
		return
	}
	for _, h := range histCols {
		v, _ := p.in.reg.Value(h.name, h.labels...)
		rec.cols[h.col] = v - p.last[h.col]
		p.last[h.col] = v
	}
	rec.cols[colUnattributed] = rec.cols[colObserve]
	for _, c := range attributed {
		rec.cols[colUnattributed] -= rec.cols[c]
	}
	tr, ok := p.in.prog.Latest()
	if !ok || tr.ID == p.lastTrace {
		return
	}
	p.lastTrace = tr.ID
	for _, sp := range tr.Spans {
		c, ok := spanCols[sp.Name]
		if !ok {
			continue
		}
		rec.cols[c] += sp.DurationSeconds
		if c == colMatch {
			p.matches++
			for _, a := range sp.Attrs {
				if a.Key == "candidates" {
					p.candidates += a.Value
				}
			}
		}
	}
}

// counter reads a counter, histogram count or gauge the program
// registered; absent series read 0.
func counter(reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
	v, _ := reg.Value(name, labels...)
	return v
}

// writeTimeline writes one CSV row per epoch: its class, latency, the load
// generator's time and every per-stage column.
func writeTimeline(path string, recs []epochRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "pass,epoch,class,failed,latency_ms,next_ms")
	for _, n := range colNames {
		fmt.Fprintf(w, ",%s_s", n)
	}
	fmt.Fprintln(w)
	for _, r := range recs {
		fmt.Fprintf(w, "%d,%d,%s,%t,%s,%s", r.pass, r.epoch, r.class, r.failed,
			fmtFloat(ms(r.latency)), fmtFloat(ms(r.next)))
		for _, v := range r.cols {
			fmt.Fprintf(w, ",%s", fmtFloat(v))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes every retained trace, oldest first: the feeder's own
// per-epoch call spans and the program's traces.
func writeSpans(path string, in instruments) error {
	chrono := func(t *telemetry.Tracer) []telemetry.TraceSnapshot {
		s := t.Snapshots()
		slices.Reverse(s)
		return s
	}
	doc := map[string][]telemetry.TraceSnapshot{
		"feeder":  chrono(in.own),
		"program": chrono(in.prog),
		"shards":  chrono(in.shard),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// artifactPath names a traced run's output file.
func artifactPath(dir, workload string, seed int64, suffix string) string {
	return filepath.Join(dir, workload+"-seed"+strconv.FormatInt(seed, 10)+suffix)
}
