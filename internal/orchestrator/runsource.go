package orchestrator

// RunSource is the orchestrator's one run loop: it pulls events one at a
// time from a lazy EventSource (an internal/sim engine over lazy
// generators, or a trace replayer) and streams finished reports to a
// callback — memory stays O(in-flight events) however long the virtual
// horizon. Each event is routed to the fault barrier, the pipelined driver
// or the serial driver; all three run the same stages (stages.go). The
// eager Run([]Event) is a thin adapter over it, so the differential tests
// in runsource_test.go pin that lazy and eager inputs produce the same
// assignments, objective bits, Stats counters and decision-record stream
// across the serial and pipelined paths and the single-lock test reference.

import (
	"fmt"
	"math"
	"sync"

	"vconf/internal/sim"
	"vconf/internal/workload"
)

// EventSource is the pull-based lazy event stream RunSource consumes:
// events in non-decreasing time order, ok=false at exhaustion, Err for
// stream failures. sim.Engine, the lazy generators and sim.Replayer all
// satisfy it.
type EventSource = sim.EventSource

// Run processes an event schedule in order and returns the per-event
// reports — RunSource over the slice. On error the reports retired before
// the failure come back with it.
func (o *Orchestrator) Run(events []workload.Event, horizonS float64) ([]EventReport, error) {
	reports := make([]EventReport, 0, len(events))
	err := o.RunSource(sim.NewSliceSource(events), horizonS, func(rep EventReport) error {
		reports = append(reports, rep)
		return nil
	})
	return reports, err
}

// RunSource processes events pulled from src in order until exhaustion.
// Each finished report is passed to onReport (nil to discard): in schedule
// order, from a single goroutine, though in pipelined mode that goroutine
// is the scheduler's retire loop, not the caller's. A non-nil onReport
// error aborts the run and surfaces from RunSource. With a runtime
// attached, the data plane ticks across event gaps and to horizonS at the
// end. In pipelined mode events with disjoint footprints overlap, and the
// orchestrator is fully drained when RunSource returns.
func (o *Orchestrator) RunSource(src EventSource, horizonS float64, onReport func(EventReport) error) error {
	var cbMu sync.Mutex
	var cbErr error
	emit := func(rep EventReport) {
		cbMu.Lock()
		defer cbMu.Unlock()
		if cbErr == nil && onReport != nil {
			cbErr = onReport(rep)
		}
	}
	takeCbErr := func() error {
		cbMu.Lock()
		defer cbMu.Unlock()
		err := cbErr
		cbErr = nil
		return err
	}
	// abort drains in-flight pipelined events (their reports still retire)
	// and returns the earliest error: a stream error the drain surfaces
	// belongs to an event before the one that failed here.
	abort := func(err error) error {
		if o.pipe != nil {
			if derr := o.pipe.Drain(); derr != nil {
				return derr
			}
		}
		return err
	}
	prev := math.Inf(-1)
	for i := 0; ; i++ {
		e, ok := src.Next()
		if !ok {
			break
		}
		// The schedule contract is non-decreasing time; reject violations
		// instead of silently regressing the clock.
		if e.TimeS < prev {
			return abort(fmt.Errorf("orchestrator: out-of-order event %d at t=%v after t=%v", i, e.TimeS, prev))
		}
		prev = e.TimeS
		if err := o.tickRuntime(e.TimeS); err != nil {
			return abort(err)
		}
		// Worker/runtime and report-sink errors surface mid-stream, not only
		// after the whole schedule drained.
		if err := o.takeRefErr(); err != nil {
			return abort(err)
		}
		if err := takeCbErr(); err != nil {
			return abort(err)
		}
		if err := o.route(e, emit); err != nil {
			return abort(err)
		}
	}
	if o.pipe != nil {
		if err := o.pipe.Drain(); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := o.tickRuntime(horizonS); err != nil {
		return err
	}
	if err := o.takeRefErr(); err != nil {
		return err
	}
	return takeCbErr()
}

// route runs one event on its path: a fault drains the scheduler and heals,
// a churn event is submitted to the scheduler (pipelined) or runs its
// stages in place (serial). Reports reach emit at retire.
func (o *Orchestrator) route(e workload.Event, emit func(EventReport)) error {
	if e.Kind.IsFault() {
		_, err := o.handleFault(e, emit)
		return err
	}
	st, err := o.newEvent(e, emit)
	if err != nil {
		return err
	}
	if o.pipe != nil {
		_, err = o.submit(st)
		return err
	}
	return st.runStages()
}

// tickRuntime advances the attached data plane to virtual time t under the
// state lock (in-flight pipelined commits migrate through it concurrently).
func (o *Orchestrator) tickRuntime(t float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.rt == nil {
		return nil
	}
	if dt := t - o.rt.Now(); dt > 1e-9 {
		_, err := o.rt.Tick(dt)
		return err
	}
	return nil
}
