package trace

import (
	"encoding/json"
	"fmt"
)

// ValidationStats summarizes a validated Chrome trace.
type ValidationStats struct {
	Events    int // all records, metadata included
	SpanPairs int // matched B/E pairs
	Complete  int // X records
	Instants  int // i records
	Metadata  int // M records
	Lanes     int // distinct (pid,tid) lanes seen on non-M records
}

// ValidateChromeTrace parses data as Chrome trace-event JSON (object
// format) and checks the schema invariants the exporter guarantees:
// every record has a known ph plus numeric pid/tid, non-metadata
// records carry a non-negative ts, X records carry a non-negative dur,
// and B/E records pair up LIFO per lane with matching names. The harness,
// torture and kvbench tests run it over the traces of real runs.
func ValidateChromeTrace(data []byte) (ValidationStats, error) {
	var stats ValidationStats
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return stats, fmt.Errorf("trace: not a JSON object: %w", err)
	}
	if doc.TraceEvents == nil {
		return stats, fmt.Errorf("trace: missing traceEvents array")
	}

	type lane struct{ pid, tid int64 }
	type openSpan struct {
		name string
		span int64
	}
	stacks := map[lane][]openSpan{}
	lanes := map[lane]bool{}

	num := func(m map[string]any, key string) (float64, bool) {
		v, ok := m[key].(float64)
		return v, ok
	}

	for i, raw := range doc.TraceEvents {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return stats, fmt.Errorf("trace: event %d: %w", i, err)
		}
		stats.Events++
		ph, _ := m["ph"].(string)
		pid, okP := num(m, "pid")
		tid, okT := num(m, "tid")
		if !okP || !okT {
			return stats, fmt.Errorf("trace: event %d (ph=%q): missing numeric pid/tid", i, ph)
		}
		l := lane{int64(pid), int64(tid)}
		if ph != "M" {
			lanes[l] = true
			ts, ok := num(m, "ts")
			if !ok || ts < 0 {
				return stats, fmt.Errorf("trace: event %d (ph=%q): missing or negative ts", i, ph)
			}
		}
		name, _ := m["name"].(string)
		switch ph {
		case "M":
			stats.Metadata++
		case "B":
			span := int64(-1)
			if args, ok := m["args"].(map[string]any); ok {
				if v, ok := args["span"].(float64); ok {
					span = int64(v)
				}
			}
			stacks[l] = append(stacks[l], openSpan{name: name, span: span})
		case "E":
			st := stacks[l]
			if len(st) == 0 {
				return stats, fmt.Errorf("trace: event %d: E %q on lane %v with no open B", i, name, l)
			}
			top := st[len(st)-1]
			if top.name != name {
				return stats, fmt.Errorf("trace: event %d: E %q does not match open B %q (lane %v)", i, name, top.name, l)
			}
			stacks[l] = st[:len(st)-1]
			stats.SpanPairs++
		case "X":
			if dur, ok := num(m, "dur"); !ok || dur < 0 {
				return stats, fmt.Errorf("trace: event %d: X %q missing or negative dur", i, name)
			}
			stats.Complete++
		case "i":
			stats.Instants++
		default:
			return stats, fmt.Errorf("trace: event %d: unknown ph %q", i, ph)
		}
	}
	for l, st := range stacks {
		if len(st) > 0 {
			return stats, fmt.Errorf("trace: lane %v ends with %d unclosed B (innermost %q)", l, len(st), st[len(st)-1].name)
		}
	}
	stats.Lanes = len(lanes)
	return stats, nil
}
