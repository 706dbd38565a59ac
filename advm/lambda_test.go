package advm_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/advm"
)

// TestPlanLambdas: a plan's lambdas are parsed on their own and lowered with
// inputs named by position, so any column name works, a lambda sees only its
// own parameters, and errors point into the lambda's own text. Every case
// runs serial and under WithParallelism(2), cold (interpreted) and hot (the
// fused tier, where the lambda has a snippet).
func TestPlanLambdas(t *testing.T) {
	table := func(col string) *advm.Table {
		tb := advm.NewTable(advm.NewSchema(col, advm.I64))
		for i := int64(0); i < 5; i++ {
			tb.AppendRow(advm.I64Value(i))
		}
		return tb
	}
	// rows lists the expected result: one row per kept v in 0..4, each the
	// value itself followed by f(v) when f is given.
	rows := func(keep func(v int64) bool, f func(v int64) int64) string {
		var out [][]advm.Value
		for v := int64(0); v < 5; v++ {
			if !keep(v) {
				continue
			}
			row := []advm.Value{advm.I64Value(v)}
			if f != nil {
				row = append(row, advm.I64Value(f(v)))
			}
			out = append(out, row)
		}
		return fmt.Sprint(out)
	}
	all := func(int64) bool { return true }
	cases := []struct {
		name string
		plan *advm.Plan
		want string // expected rows; empty when the query must fail
		err  string // ErrCompile message fragment
	}{
		{
			// The lowering's output external was once named out, after
			// which the input column read the output buffer.
			name: "column-named-out",
			plan: advm.Scan(table("out")).Compute("y", `(\v -> v * 2)`, advm.I64, "out"),
			want: rows(all, func(v int64) int64 { return v * 2 }),
		},
		{
			name: "column-named-map",
			plan: advm.Scan(table("map")).Compute("y", `(\v -> v * 3 + 1)`, advm.I64, "map"),
			want: rows(all, func(v int64) int64 { return v*3 + 1 }),
		},
		{
			name: "column-named-let",
			plan: advm.Scan(table("let")).Filter(`(\v -> v < 3)`, "let"),
			want: rows(func(v int64) bool { return v < 3 }, nil),
		},
		{
			name: "column-named-my-col",
			plan: advm.Scan(table("my-col")).Compute("y", `(\v -> v + 1)`, advm.I64, "my-col"),
			want: rows(all, func(v int64) int64 { return v + 1 }),
		},
		{
			// c0 once named the lowering's first input.
			name: "lowering-name",
			plan: advm.Scan(table("v")).Compute("y", `(\v -> v + c0)`, advm.I64, "v"),
			err:  `undefined variable "c0"`,
		},
		{
			name: "column-name",
			plan: advm.Scan(table("k")).Filter(`(\v -> v < k)`, "k"),
			err:  `undefined variable "k"`,
		},
		{
			name: "parse-error-position",
			plan: advm.Scan(table("k")).Filter(`(\k -> k <)`, "k"),
			err:  "dsl: 1:11:",
		},
	}
	configs := map[string][]advm.Option{
		"serial-cold": {advm.WithTieredExecution(false)},
		"par2-cold":   {advm.WithTieredExecution(false), advm.WithParallelism(2)},
		"serial-hot":  {advm.WithTierThresholds(1, 1)},
		"par2-hot":    {advm.WithTierThresholds(1, 1), advm.WithParallelism(2)},
	}
	// The configurations run at once over the same plans, so the first
	// query to reach a node parses its lambda while the others wait for it.
	var wg sync.WaitGroup
	for cfg, opts := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := advm.NewSession(opts...)
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for _, tc := range cases {
				got, err := drain(sess, tc.plan)
				if tc.err == "" {
					if err != nil || got != tc.want {
						t.Errorf("%s/%s: rows = %s, %v; want %s", cfg, tc.name, got, err, tc.want)
					}
					continue
				}
				if !errors.Is(err, advm.ErrCompile) || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("%s/%s: err = %v, want ErrCompile containing %q", cfg, tc.name, err, tc.err)
				}
			}
		}()
	}
	wg.Wait()
}

// drain runs the plan and renders its rows as fmt.Sprint of the scanned
// values.
func drain(sess *advm.Session, plan *advm.Plan) (string, error) {
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	var out [][]advm.Value
	for rows.Next() {
		row := make([]advm.Value, len(rows.Columns()))
		dests := make([]any, len(row))
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rows.Scan(dests...); err != nil {
			return "", err
		}
		out = append(out, row)
	}
	return fmt.Sprint(out), rows.Err()
}
