package main

import (
	"errors"
	"fmt"
	"reflect"

	"dcfp/internal/crisis"
	"dcfp/internal/fleet"
	"dcfp/internal/metrics"
	"dcfp/internal/monitor"
)

// system is the program under test as the feeder sees it: one call per
// epoch, timed through the meter, plus the operator's ResolveCrisis.
type system interface {
	step(e int, rows [][]float64, act *crisis.Instance, m *meter) (*monitor.EpochReport, error)
	resolve(id, label string, m *meter) error
	// primary is the monitor whose crisis records the checks read.
	primary() *monitor.Monitor
}

// node is a single monitor fed through ObserveEpoch.
type node struct {
	mon *monitor.Monitor
}

func (n *node) step(_ int, rows [][]float64, _ *crisis.Instance, m *meter) (*monitor.EpochReport, error) {
	var rep *monitor.EpochReport
	err := m.call("ObserveEpoch", colObserveCall, func() (err error) {
		rep, err = n.mon.ObserveEpoch(rows)
		return err
	})
	return rep, err
}

func (n *node) resolve(id, label string, m *meter) error {
	return m.call("ResolveCrisis", colResolve, func() error { return n.mon.ResolveCrisis(id, label) })
}

func (n *node) primary() *monitor.Monitor { return n.mon }

// errMismatch marks a fleet epoch whose merged report differs from the
// single-node reference.
var errMismatch = errors.New("merged report differs from the single-node reference")

// fleetNode is N shard aggregators and one coordinator driven through their
// public calls, frames crossing the full wire codec, plus an untimed
// single-node reference monitor fed the same rows.
type fleetNode struct {
	aggs  []*fleet.Aggregator
	coord *fleet.Coordinator
	mon   *monitor.Monitor // the coordinator's
	ref   *monitor.Monitor
	reps  []*monitor.EpochReport // filled by the coordinator's OnReport
	// plant, when set, alters each reference report before the
	// comparison; tests use it to prove a wrong reference is caught.
	plant func(*monitor.EpochReport)

	frameBytes, frames, forced int
}

func (f *fleetNode) step(e int, rows [][]float64, act *crisis.Instance, m *meter) (*monitor.EpochReport, error) {
	ep := metrics.Epoch(e)
	f.reps = f.reps[:0]
	for s, g := range f.aggs {
		var frame []byte
		if err := m.call("EpochFrame", colEpochFrame, func() (err error) {
			frame, err = g.EpochFrame(ep, rows, act)
			return err
		}); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		f.frameBytes += len(frame)
		f.frames++
		var ack *fleet.Ack
		m.call("HandleFrameBytes", colHandleFrame, func() error {
			ack, _ = f.coord.HandleFrameBytes(frame)
			return nil
		})
		if !ack.OK {
			return nil, fmt.Errorf("shard %d: frame refused: %s", s, ack.Error)
		}
		if ack.Assignment != nil {
			g.Adopt(*ack.Assignment)
		}
		// Delivery bypassed Ship, so the shard's trace is closed here.
		g.NoteShipped(ep)
	}
	for f.coord.Watermark() <= ep {
		merged := false
		m.call("ForceFlush", colForceFlush, func() error {
			merged = f.coord.ForceFlush()
			return nil
		})
		if !merged {
			return nil, errors.New("coordinator stalled with no pending frames")
		}
		f.forced++
	}
	if len(f.reps) != 1 {
		return nil, fmt.Errorf("coordinator emitted %d reports", len(f.reps))
	}
	rep := f.reps[0]
	want, err := f.ref.ObserveEpoch(rows)
	if err != nil {
		return rep, fmt.Errorf("reference monitor: %w", err)
	}
	if f.plant != nil {
		f.plant(want)
	}
	if !reflect.DeepEqual(want, rep) {
		return rep, errMismatch
	}
	return rep, nil
}

func (f *fleetNode) resolve(id, label string, m *meter) error {
	if err := m.call("ResolveCrisis", colResolve, func() error { return f.mon.ResolveCrisis(id, label) }); err != nil {
		return err
	}
	return f.ref.ResolveCrisis(id, label)
}

func (f *fleetNode) primary() *monitor.Monitor { return f.ref }

// operator plays the on-call engineer as cmd/dcfpd does: it remembers the
// injected ground truth each detected crisis overlapped, files that label
// through ResolveCrisis resolveAfter epochs after the crisis closes, and
// scores the diagnosis on a monitor.Scoreboard.
type operator struct {
	score   *monitor.Scoreboard
	crises  map[string]*crisisLog
	pending []resolution
	wasIn   bool
	lastID  string
	// scored and correct count the diagnoses ident.Evaluate scored.
	scored, correct int
}

// crisisLog is what the operator learned about one detected crisis.
type crisisLog struct {
	truth string // label of an injected crisis it overlapped; "" = none
	// closeRec indexes the record of the epoch that closed it (-1 = open).
	closeRec int
}

type resolution struct {
	due   int
	id    string
	label string
}

func newOperator() *operator {
	return &operator{score: monitor.NewScoreboard(nil), crises: make(map[string]*crisisLog)}
}

// observe classifies epoch e from its report and returns the resolutions
// now due. rec is the index of e's record.
func (o *operator) observe(e int, rep *monitor.EpochReport, act *crisis.Instance, mon *monitor.Monitor, rec int) (string, []resolution) {
	st := mon.Stats()
	class := classSteady
	switch {
	case o.wasIn && !rep.CrisisActive:
		class = classClose
	case rep.Advice != nil:
		class = classAdvice
	case st.ThresholdsReady && st.ThresholdAgeEpochs == 0:
		class = classRefresh
	}
	if rep.CrisisActive {
		c := o.crises[st.ActiveCrisisID]
		if c == nil {
			c = &crisisLog{closeRec: -1}
			o.crises[st.ActiveCrisisID] = c
		}
		if act != nil {
			c.truth = act.Type.String()
		}
		o.lastID = st.ActiveCrisisID
	}
	if class == classClose {
		c := o.crises[o.lastID]
		c.closeRec = rec
		if c.truth != "" {
			o.pending = append(o.pending, resolution{due: e + resolveAfter, id: o.lastID, label: c.truth})
		}
	}
	o.wasIn = rep.CrisisActive
	var due []resolution
	kept := o.pending[:0]
	for _, p := range o.pending {
		if p.due > e {
			kept = append(kept, p)
		} else {
			due = append(due, p)
		}
	}
	o.pending = kept
	return class, due
}

// record scores a filed diagnosis the way cmd/dcfpd does. Crises that never
// produced an identification attempt carry no votes and are not scored.
func (o *operator) record(mon *monitor.Monitor, id, truth string) {
	expls, ok := mon.Explanations(id)
	if !ok || len(expls) == 0 {
		return
	}
	known := false
	for _, c := range expls[0].Candidates {
		if c.Label == truth {
			known = true
			break
		}
	}
	o.scored++
	if o.score.Record(monitor.Feedback{CrisisID: id, Truth: truth, Known: known, Votes: expls[len(expls)-1].Votes}).Correct {
		o.correct++
	}
}

// lifecycleFailures checks every crisis mon detected, after the pass's
// Flush: each must be closed, stored, and overlap an injected crisis. It
// returns the record index charged with each failure: the closing epoch,
// or last when the crisis never closed.
func (o *operator) lifecycleFailures(mon *monitor.Monitor, last int) []int {
	var bad []int
	for _, r := range mon.Crises() {
		c := o.crises[r.ID]
		if !r.Active && r.Stored && c != nil && c.truth != "" {
			continue
		}
		if c != nil && c.closeRec >= 0 {
			bad = append(bad, c.closeRec)
		} else {
			bad = append(bad, last)
		}
	}
	return bad
}
