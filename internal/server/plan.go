package server

import (
	"fmt"

	"repro/advm"
	"repro/internal/tpch"
)

// queryRequest is the body of POST /v1/query: either a named TPC-H plan
// ("q1", "q6", "q3") with optional parameters, or an ad-hoc pipeline of DSL
// stages over a registered table.
type queryRequest struct {
	// Query names a built-in plan over the server's registered TPC-H
	// tables. Mutually exclusive with Table/Pipeline.
	Query string `json:"query,omitempty"`
	// Params overrides the named plan's parameters (q6: ship_lo, ship_hi,
	// disc_lo, disc_hi, qty_max; q3: segment, date, topk).
	Params map[string]float64 `json:"params,omitempty"`

	// Table + Columns + Pipeline describe an ad-hoc query: scan the named
	// registered table (all columns when Columns is empty) and stack the
	// pipeline stages on top.
	Table    string      `json:"table,omitempty"`
	Columns  []string    `json:"columns,omitempty"`
	Pipeline []stageSpec `json:"pipeline,omitempty"`

	// Opts are per-request session options (the per-tenant knobs).
	Opts *sessionOpts `json:"opts,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 → the
	// server's default, clamped to its maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Limit stops the stream after this many rows (0 = all). The server
	// abandons the cursor at the limit, cancelling the rest of the query.
	Limit int64 `json:"limit,omitempty"`
	// Trace asks for the query's execution trace — the full span tree with
	// per-morsel worker and steal attribution — as a "trace" field on
	// the trailing NDJSON record.
	Trace bool `json:"trace,omitempty"`
}

// stageSpec is one pipeline stage of an ad-hoc query. Lambdas are DSL
// expressions, compiled through the same normalizer as programs; a bad
// lambda maps to advm.ErrCompile and HTTP 400.
type stageSpec struct {
	Op string `json:"op"` // filter | compute | aggregate | topk

	// filter: Lambda over Col.
	Lambda string `json:"lambda,omitempty"`
	Col    string `json:"col,omitempty"`

	// compute: Out = Lambda(Cols...), of kind Kind.
	Out  string   `json:"out,omitempty"`
	Kind string   `json:"kind,omitempty"`
	Cols []string `json:"cols,omitempty"`

	// aggregate: group by Keys, computing Aggs.
	Keys []string  `json:"keys,omitempty"`
	Aggs []aggSpec `json:"aggs,omitempty"`

	// topk: first K rows by By.
	K  int         `json:"k,omitempty"`
	By []orderSpec `json:"by,omitempty"`
}

type aggSpec struct {
	Func string `json:"func"` // sum | count | min | max | avg | first
	Col  string `json:"col,omitempty"`
	As   string `json:"as"`
}

type orderSpec struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// sessionOpts are the per-tenant session options parsed from a request.
type sessionOpts struct {
	// Parallelism is the worker fan-out requested per query (clamped to
	// Config.MaxParallelism; the engine pool may grant fewer under
	// contention).
	Parallelism int `json:"parallelism,omitempty"`
	// MorselLen and ChunkLen override dispatch granularity and scan chunk
	// length.
	MorselLen int `json:"morsel_len,omitempty"`
	ChunkLen  int `json:"chunk_len,omitempty"`
}

// badRequestError marks client mistakes detected by the server itself
// (unknown table, malformed pipeline) before the engine classifies anything.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// buildPlan resolves a query request into an executable plan against the
// server's table registry.
func (s *Server) buildPlan(req *queryRequest) (*advm.Plan, error) {
	if req.Query != "" {
		if req.Table != "" || len(req.Pipeline) > 0 {
			return nil, badRequestf("request mixes named query %q with an ad-hoc pipeline", req.Query)
		}
		return s.namedPlan(req.Query, req.Params)
	}
	if req.Table == "" {
		return nil, badRequestf("request needs either a named query or a table")
	}
	table, ok := s.lookupTable(req.Table)
	if !ok {
		return nil, badRequestf("unknown table %q", req.Table)
	}
	plan := advm.Scan(table, req.Columns...)
	for i, st := range req.Pipeline {
		var err error
		if plan, err = applyStage(plan, st); err != nil {
			return nil, badRequestf("pipeline stage %d: %v", i, err)
		}
	}
	return plan, nil
}

// namedPlan builds one of the built-in TPC-H plans over registered tables.
func (s *Server) namedPlan(name string, params map[string]float64) (*advm.Plan, error) {
	get := func(table string) (advm.TableSource, error) {
		t, ok := s.lookupTable(table)
		if !ok {
			return nil, badRequestf("named query %q needs table %q, which is not registered", name, table)
		}
		return t, nil
	}
	num := func(key string, def float64) float64 {
		if v, ok := params[key]; ok {
			return v
		}
		return def
	}
	switch name {
	case "q1":
		li, err := get("lineitem")
		if err != nil {
			return nil, err
		}
		return tpch.PlanQ1(li), nil
	case "q6":
		li, err := get("lineitem")
		if err != nil {
			return nil, err
		}
		d := tpch.DefaultQ6Params()
		p := tpch.Q6Params{
			ShipLo: int64(num("ship_lo", float64(d.ShipLo))),
			ShipHi: int64(num("ship_hi", float64(d.ShipHi))),
			DiscLo: num("disc_lo", d.DiscLo),
			DiscHi: num("disc_hi", d.DiscHi),
			QtyMax: int64(num("qty_max", float64(d.QtyMax))),
		}
		return tpch.PlanQ6(li, p), nil
	case "q3":
		li, err := get("lineitem")
		if err != nil {
			return nil, err
		}
		ord, err := get("orders")
		if err != nil {
			return nil, err
		}
		cust, err := get("customer")
		if err != nil {
			return nil, err
		}
		d := tpch.DefaultQ3Params()
		p := tpch.Q3Params{
			Segment: int64(num("segment", float64(d.Segment))),
			Date:    int64(num("date", float64(d.Date))),
			TopK:    int(num("topk", float64(d.TopK))),
		}
		if p.TopK < 1 {
			return nil, badRequestf("q3 topk must be ≥ 1, got %d", p.TopK)
		}
		return tpch.PlanQ3(li, ord, cust, p), nil
	}
	return nil, badRequestf("unknown named query %q (have q1, q6, q3)", name)
}

// applyStage stacks one pipeline stage onto a plan.
func applyStage(plan *advm.Plan, st stageSpec) (*advm.Plan, error) {
	switch st.Op {
	case "filter":
		if st.Lambda == "" || st.Col == "" {
			return nil, fmt.Errorf("filter needs lambda and col")
		}
		return plan.Filter(st.Lambda, st.Col), nil
	case "compute":
		if st.Lambda == "" || st.Out == "" || len(st.Cols) == 0 {
			return nil, fmt.Errorf("compute needs lambda, out and cols")
		}
		kind, err := advm.ParseKind(st.Kind)
		if err != nil {
			return nil, fmt.Errorf("compute output kind: %v", err)
		}
		return plan.Compute(st.Out, st.Lambda, kind, st.Cols...), nil
	case "aggregate":
		if len(st.Aggs) == 0 {
			return nil, fmt.Errorf("aggregate needs at least one agg")
		}
		aggs := make([]advm.Agg, len(st.Aggs))
		for i, a := range st.Aggs {
			fn, err := parseAggFunc(a.Func)
			if err != nil {
				return nil, err
			}
			if a.As == "" {
				return nil, fmt.Errorf("agg %d needs an output name (as)", i)
			}
			if fn != advm.AggCount && a.Col == "" {
				return nil, fmt.Errorf("agg %q needs an input column", a.Func)
			}
			aggs[i] = advm.Agg{Func: fn, Col: a.Col, As: a.As}
		}
		return plan.Aggregate(st.Keys, aggs...), nil
	case "topk":
		if st.K < 1 || len(st.By) == 0 {
			return nil, fmt.Errorf("topk needs k ≥ 1 and at least one order column")
		}
		by := make([]advm.Order, len(st.By))
		for i, o := range st.By {
			by[i] = advm.Order{Col: o.Col, Desc: o.Desc}
		}
		return plan.TopK(st.K, by...), nil
	}
	return nil, fmt.Errorf("unknown op %q (have filter, compute, aggregate, topk)", st.Op)
}

func parseAggFunc(name string) (advm.AggFunc, error) {
	switch name {
	case "sum":
		return advm.AggSum, nil
	case "count":
		return advm.AggCount, nil
	case "min":
		return advm.AggMin, nil
	case "max":
		return advm.AggMax, nil
	case "avg":
		return advm.AggAvg, nil
	case "first":
		return advm.AggFirst, nil
	}
	return 0, fmt.Errorf("unknown aggregate %q (have sum, count, min, max, avg, first)", name)
}

// parseSessionOpts resolves per-request options into advm options, clamped
// to the server's limits. Zero fields inherit the engine's defaults (so a
// request with no options runs with the parallelism the engine was created
// with).
func (s *Server) parseSessionOpts(o *sessionOpts) (sessKey, []advm.Option, error) {
	var key sessKey
	if o == nil {
		return key, nil, nil
	}
	if o.Parallelism < 0 || o.MorselLen < 0 || o.ChunkLen < 0 {
		return key, nil, badRequestf("session options must be non-negative")
	}
	key.parallelism = o.Parallelism
	if key.parallelism > s.cfg.MaxParallelism {
		key.parallelism = s.cfg.MaxParallelism
	}
	// Chunk and morsel lengths size upfront buffer allocations (every scan
	// allocates chunk-length column buffers), so clamp them like
	// parallelism: a tenant tunes granularity, it does not command
	// gigabytes.
	key.morselLen = min(o.MorselLen, maxRequestLen)
	key.chunkLen = min(o.ChunkLen, maxRequestLen)

	var opts []advm.Option
	if key.parallelism > 0 {
		opts = append(opts, advm.WithParallelism(key.parallelism))
	}
	if key.morselLen > 0 {
		opts = append(opts, advm.WithMorselLen(key.morselLen))
	}
	if key.chunkLen > 0 {
		opts = append(opts, advm.WithChunkLen(key.chunkLen))
	}
	return key, opts, nil
}

// maxRequestLen bounds per-request chunk and morsel lengths (in rows).
const maxRequestLen = 1 << 20
