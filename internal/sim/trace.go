package sim

import (
	"fmt"
	"io"

	"respat/internal/core"
)

// EventKind classifies timeline events recorded by TraceOne.
type EventKind int

// Event kinds, in the order they typically appear.
const (
	EvOpDone      EventKind = iota // an operation completed
	EvFailStop                     // a fail-stop error struck
	EvSilent                       // a silent error corrupted the state
	EvDetect                       // a verification raised an alarm
	EvDiskRec                      // a disk recovery completed
	EvMemRec                       // a standalone memory recovery completed
	EvPatternDone                  // a pattern instance committed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvOpDone:
		return "op-done"
	case EvFailStop:
		return "fail-stop"
	case EvSilent:
		return "silent-error"
	case EvDetect:
		return "detected"
	case EvDiskRec:
		return "disk-recovery"
	case EvMemRec:
		return "mem-recovery"
	case EvPatternDone:
		return "pattern-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a simulated run's timeline.
type Event struct {
	Time    time64
	Kind    EventKind
	Op      core.Op // for EvOpDone and EvDetect
	Segment int
	Pattern int // pattern instance index
}

// time64 documents that event times are virtual seconds.
type time64 = float64

// String renders one timeline line.
func (e Event) String() string {
	switch e.Kind {
	case EvOpDone:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  %v", e.Time, e.Pattern, e.Segment, e.Op)
	case EvDetect:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  ALARM (%v)", e.Time, e.Pattern, e.Segment, e.Op)
	case EvPatternDone:
		return fmt.Sprintf("t=%10.1f  p%02d      committed", e.Time, e.Pattern)
	default:
		return fmt.Sprintf("t=%10.1f  p%02d s%02d  %v", e.Time, e.Pattern, e.Segment, e.Kind)
	}
}

// TraceOne executes a single run of the configuration (cfg.Runs is
// ignored) and returns its full event timeline alongside the counters.
// It is intended for debugging protocols and for documentation — the
// timelines in README.md come from it.
func TraceOne(cfg Config, run int) ([]Event, Counters, error) {
	cfg.Runs = 1
	if err := cfg.Validate(); err != nil {
		return nil, Counters{}, err
	}
	ex := newExecutor(&cfg, newPlan(&cfg))
	ex.reset(run)
	var events []Event
	ex.rec = func(e Event) { events = append(events, e) }
	cnt, _ := ex.runAll()
	return events, cnt, nil
}

// WriteTimeline renders events one per line.
func WriteTimeline(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
