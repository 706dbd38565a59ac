package qtrace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// AttrFusedInto tags an operator span whose stage a fused loop ran: its
// value is the name of the span above it that the loop reports into.
const AttrFusedInto = "fused_into"

// ExplainAnalyze renders the span tree as a PostgreSQL-style plan with
// actual timings: one line per operator with inclusive time, self time,
// rows, and loops, followed by its attributes, with per-morsel leaves
// summarized (per-worker morsel counts, steals) rather than
// listed. The inclusive time is a wall time (actual=) or, for a span its
// workers charge concurrently (Span.SetSummed), their summed time
// (actual(sum)=), which may exceed the query's wall time. An operator tagged
// AttrFusedInto has no timings of its own and renders as "fused into
// <span>". Event spans render as bracketed markers.
func (t *Trace) ExplainAnalyze() string {
	if t == nil {
		return "tracing disabled\n"
	}
	var b strings.Builder
	for _, root := range t.tree() {
		writeExplainNode(&b, root, 0)
	}
	return b.String()
}

func writeExplainNode(b *strings.Builder, n *node, depth int) {
	switch n.s.Kind() {
	case KindMorsel:
		return // summarized on the parent
	case KindEvent:
		fmt.Fprintf(b, "%s[event: %s%s]\n", indent(depth), n.s.Name(), attrSuffix(n.s))
		return
	case KindQuery:
		fmt.Fprintf(b, "%s (wall=%s%s)\n", n.s.Name(), fmtNs(n.s.DurNs()), attrSuffix(n.s))
	default: // KindOp
		if into, ok := n.s.Attr(AttrFusedInto).(string); ok {
			fmt.Fprintf(b, "%s->  %s (fused into %s%s)\n", indent(depth), n.s.Name(), into, attrSuffix(n.s))
			break
		}
		actual := "actual"
		if n.s.Summed() {
			actual = "actual(sum)"
		}
		fmt.Fprintf(b, "%s->  %s (%s=%s self=%s rows=%d loops=%d%s)\n",
			indent(depth), n.s.Name(), actual, fmtNs(n.s.BusyNs()), fmtNs(n.selfNs()),
			n.s.Rows(), n.s.Loops(), attrSuffix(n.s))
	}
	if line := summarizeMorsels(n); line != "" {
		fmt.Fprintf(b, "%s%s\n", indent(depth+1), line)
	}
	for _, c := range n.children {
		d := depth + 1
		if n.s.Kind() == KindQuery {
			d = depth
		}
		writeExplainNode(b, c, d)
	}
}

func indent(depth int) string { return strings.Repeat("    ", depth) }

func attrSuffix(s *Span) string {
	attrs := s.Attrs()
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		if a.Key != AttrFusedInto {
			fmt.Fprintf(&b, ", %s=%v", a.Key, a.Value)
		}
	}
	return b.String()
}

// summarizeMorsels condenses a node's morsel-leaf children into one line:
// total morsels, per-worker counts and steal count.
func summarizeMorsels(n *node) string {
	perWorker := map[int]int{}
	total, stolen := 0, 0
	for _, c := range n.children {
		if c.s.Kind() != KindMorsel {
			continue
		}
		total++
		if w := c.s.Worker(); w >= 0 {
			perWorker[w]++
		}
		if v, ok := c.s.Attr("stolen").(bool); ok && v {
			stolen++
		}
	}
	if total == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "morsels: %d", total)
	workers := make([]int, 0, len(perWorker))
	for w := range perWorker {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		fmt.Fprintf(&b, " w%d=%d", w, perWorker[w])
	}
	fmt.Fprintf(&b, " stolen=%d", stolen)
	return b.String()
}

// fmtNs renders nanoseconds in a compact human unit (ms with two
// decimals above 1ms, µs below).
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
