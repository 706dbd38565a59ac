// Tracing hooks for the dispatching operators (Exchange, ParallelAgg,
// ParallelTopK, parallel join build). A dispatcher is handed the span of
// the plan node it implements via SetTrace; at the morsels level its
// dispatch closure records one leaf span per executed morsel with worker
// and steal attribution, and the completed run attaches the
// morsel.Stats summary to the operator span. With no span set every hook
// is a nil check.

package engine

import (
	"fmt"
	"strings"

	"repro/internal/morsel"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

// traceHook is the embeddable trace state of a dispatching operator.
type traceHook struct {
	tsp      *qtrace.Span
	tmorsels bool
}

// SetTrace attaches the operator's plan-node span; morsels additionally
// enables per-morsel leaf spans. Must be called before Open.
func (h *traceHook) SetTrace(sp *qtrace.Span, morsels bool) {
	h.tsp = sp
	h.tmorsels = morsels
}

// startMorsel opens a leaf span for one dispatched morsel (nil when the
// trace level doesn't record morsels).
func (h *traceHook) startMorsel() *qtrace.Span {
	if h.tsp == nil || !h.tmorsels {
		return nil
	}
	return h.tsp.Child(qtrace.KindMorsel, "morsel")
}

// finishMorsel closes a morsel leaf span with its attribution: sequence
// number, executing worker, input/output rows, and whether the morsel was
// stolen from its initial owner's range.
func finishMorsel(sp *qtrace.Span, worker, lo, hi, morselLen, totalRows, workers int, outRows int64) {
	if sp == nil {
		return
	}
	seq := lo / morselLen
	sp.SetWorker(worker)
	sp.SetAttr("seq", seq)
	sp.SetAttr("rows_in", hi-lo)
	sp.AddRows(outRows)
	sp.AddLoop()
	numMorsels := (totalRows + morselLen - 1) / morselLen
	if workers > 1 && morsel.InitialOwner(seq, numMorsels, workers) != worker {
		sp.SetAttr("stolen", true)
	}
	sp.End()
}

// attachMorselStats summarizes a completed run on the operator span.
func attachMorselStats(sp *qtrace.Span, st morsel.Stats) {
	if sp == nil {
		return
	}
	sp.SetAttr("morsels", st.Morsels())
	sp.SetAttr("steals", st.Steals())
	if len(st.MorselsPerWorker) > 1 {
		var b strings.Builder
		for w, n := range st.MorselsPerWorker {
			if w > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "w%d=%d", w, n)
		}
		sp.SetAttr("morsels_per_worker", b.String())
	}
}

// chunkRows sums the selected rows across a morsel's output chunks.
func chunkRows(chunks []*vector.Chunk) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(c.SelectedLen())
	}
	return n
}
