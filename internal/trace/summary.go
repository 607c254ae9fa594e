package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kvaccel/internal/vclock"
)

// Summary is the per-phase latency attribution table, built from the
// exact per-phase aggregates (not the ring), so it is complete even when
// the ring wrapped.
type Summary struct {
	Phases []PhaseStat // non-empty phases, largest Total first
}

// Summary builds the attribution table.
func (t *Tracer) Summary() Summary {
	var s Summary
	if t == nil {
		return s
	}
	for ph := Phase(1); ph < NumPhases; ph++ {
		st := t.Stats(ph)
		if st.Count > 0 {
			s.Phases = append(s.Phases, st)
		}
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Total > s.Phases[j].Total })
	return s
}

// Get returns the row for ph (zero row if the phase never fired).
func (s Summary) Get(ph Phase) PhaseStat {
	for _, st := range s.Phases {
		if st.Phase == ph {
			return st
		}
	}
	return PhaseStat{Phase: ph}
}

// Table renders the summary as an aligned text table.
func (s Summary) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %14s %12s %12s\n", "phase", "count", "total", "mean", "max")
	for _, st := range s.Phases {
		fmt.Fprintf(&b, "%-16s %10d %14v %12v %12v\n",
			st.Phase, st.Count, st.Total, st.Mean(), st.Max)
	}
	return b.String()
}

// SpanRec is one reconstructed closed span from the ring snapshot.
type SpanRec struct {
	Phase  Phase
	Name   string
	Lane   uint64
	Parent uint64
	Start  vclock.Time
	End    vclock.Time
}

// Duration returns the span's length.
func (s SpanRec) Duration() time.Duration { return s.End.Sub(s.Start) }

// Spans reconstructs closed spans from the ring snapshot (B/E pairs and
// X completes). Spans whose begin was lost to ring wrap are dropped;
// spans still open at snapshot time end at the last recorded timestamp.
func (t *Tracer) Spans() []SpanRec {
	events := t.Events()
	var out []SpanRec
	open := map[uint64][]Event{} // per-lane stack
	var maxTS vclock.Time
	for _, e := range events {
		ts := e.TS
		if e.Kind == KindComplete {
			ts = e.TS.Add(e.Dur)
		}
		if ts > maxTS {
			maxTS = ts
		}
	}
	for _, e := range events {
		switch e.Kind {
		case KindBegin:
			open[e.Lane] = append(open[e.Lane], e)
		case KindEnd:
			st := open[e.Lane]
			if len(st) == 0 || st[len(st)-1].Span != e.Span {
				continue
			}
			b := st[len(st)-1]
			open[e.Lane] = st[:len(st)-1]
			out = append(out, SpanRec{Phase: b.Phase, Name: b.Name, Lane: b.Lane, Parent: b.Parent, Start: b.TS, End: e.TS})
		case KindComplete:
			out = append(out, SpanRec{Phase: e.Phase, Name: e.Name, Lane: e.Lane, Parent: e.Parent, Start: e.TS, End: e.TS.Add(e.Dur)})
		}
	}
	for _, st := range open {
		for _, b := range st {
			out = append(out, SpanRec{Phase: b.Phase, Name: b.Name, Lane: b.Lane, Parent: b.Parent, Start: b.TS, End: maxTS})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// stallMergeGap coalesces stall-wait spans separated by less than this
// much virtual time into one window: a writer bouncing off the stall
// gate (wake on flush-done, re-stall on the next record) is one stall
// episode, not many.
const stallMergeGap = time.Millisecond

// StallWindow is one coalesced stall episode with its activity
// attribution.
type StallWindow struct {
	Start, End vclock.Time
	// Attribution lists, per activity phase, how much of the window that
	// phase's spans overlap (phases overlap each other — a NAND program
	// inside a compaction counts under both). Largest first.
	Attribution []PhaseDur
	// Covered is the union of all activity-span overlap with the window:
	// the part of the stall the trace explains.
	Covered time.Duration
}

// PhaseDur is one attribution row.
type PhaseDur struct {
	Phase Phase
	Dur   time.Duration
}

// Duration returns the window length.
func (w StallWindow) Duration() time.Duration { return w.End.Sub(w.Start) }

// Coverage returns Covered/Duration in [0,1].
func (w StallWindow) Coverage() float64 {
	if w.Duration() <= 0 {
		return 0
	}
	return float64(w.Covered) / float64(w.Duration())
}

// StallReport correlates stall-wait windows with concurrent
// flush/compaction/device activity.
type StallReport struct {
	Windows    []StallWindow
	TotalStall time.Duration // summed window durations
}

// StallReport builds the stall timeline from the ring snapshot.
func (t *Tracer) StallReport() StallReport {
	spans := t.Spans()
	var rep StallReport

	// Coalesce stall-wait spans (possibly from several writer lanes)
	// into windows.
	var stalls []SpanRec
	for _, s := range spans {
		if s.Phase == PhaseStallWait && s.End > s.Start {
			stalls = append(stalls, s)
		}
	}
	if len(stalls) == 0 {
		return rep
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i].Start < stalls[j].Start })
	cur := StallWindow{Start: stalls[0].Start, End: stalls[0].End}
	for _, s := range stalls[1:] {
		if s.Start.Sub(cur.End) <= stallMergeGap {
			if s.End > cur.End {
				cur.End = s.End
			}
			continue
		}
		rep.Windows = append(rep.Windows, cur)
		cur = StallWindow{Start: s.Start, End: s.End}
	}
	rep.Windows = append(rep.Windows, cur)

	// Attribute activity to each window.
	for wi := range rep.Windows {
		w := &rep.Windows[wi]
		var all []interval
		for _, ph := range activityPhases {
			var ivs []interval
			for _, s := range spans {
				if s.Phase != ph {
					continue
				}
				if iv, ok := clip(s, w.Start, w.End); ok {
					ivs = append(ivs, iv)
				}
			}
			if d := unionLen(ivs); d > 0 {
				w.Attribution = append(w.Attribution, PhaseDur{Phase: ph, Dur: d})
				all = append(all, ivs...)
			}
		}
		sort.Slice(w.Attribution, func(i, j int) bool { return w.Attribution[i].Dur > w.Attribution[j].Dur })
		w.Covered = unionLen(all)
		rep.TotalStall += w.Duration()
	}
	return rep
}

// String renders the report, largest windows first (up to 8).
func (rep StallReport) String() string {
	if len(rep.Windows) == 0 {
		return "stall report: no stall-wait spans recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stall report: %d windows, %v total stalled\n", len(rep.Windows), rep.TotalStall)
	ordered := append([]StallWindow(nil), rep.Windows...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Duration() > ordered[j].Duration() })
	if len(ordered) > 8 {
		ordered = ordered[:8]
	}
	for _, w := range ordered {
		fmt.Fprintf(&b, "  [%v .. %v] %v stalled, %.0f%% attributed\n",
			time.Duration(w.Start), time.Duration(w.End), w.Duration(), 100*w.Coverage())
		for _, a := range w.Attribution {
			fmt.Fprintf(&b, "    %-16s %v\n", a.Phase, a.Dur)
		}
	}
	return b.String()
}

type interval struct{ lo, hi vclock.Time }

func clip(s SpanRec, lo, hi vclock.Time) (interval, bool) {
	a, b := s.Start, s.End
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return interval{}, false
	}
	return interval{a, b}, true
}

// unionLen returns the total length of the union of ivs.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	curLo, curHi := ivs[0].lo, ivs[0].hi
	for _, iv := range ivs[1:] {
		if iv.lo > curHi {
			total += curHi.Sub(curLo)
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	total += curHi.Sub(curLo)
	return total
}
