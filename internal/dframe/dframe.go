// Package dframe implements a distributed dataframe on the charmgo runtime
// — the paper's future-work item of distributing pandas-style dataframes
// while preserving their APIs (section VI). A DataFrame's rows are
// partitioned into Part chares; the driver API is synchronous
// (Count/Sum/Mean/Filter/Map/GroupBySum/Head) with chare messaging,
// reductions and a custom map-merging reducer underneath.
package dframe

import (
	"fmt"
	"math"
	"sync"

	"charmgo/internal/core"
	"charmgo/internal/ser"
)

// ColKind is a column type.
type ColKind uint8

// Column kinds.
const (
	KFloat ColKind = iota
	KString
)

// Col is one column of a schema.
type Col struct {
	Name string
	Kind ColKind
}

// Schema describes a dataframe's columns.
type Schema []Col

// registered row-wise map functions
var (
	fnMu   sync.RWMutex
	mapFns = map[string]func(x float64) float64{}
)

// RegisterMapFunc registers a float64 column transform under a name (must
// be registered on every node).
func RegisterMapFunc(name string, fn func(float64) float64) {
	fnMu.Lock()
	defer fnMu.Unlock()
	mapFns[name] = fn
}

func mapFn(name string) func(float64) float64 {
	fnMu.RLock()
	defer fnMu.RUnlock()
	fn := mapFns[name]
	if fn == nil {
		panic(fmt.Sprintf("dframe: map function %q not registered", name))
	}
	return fn
}

// mergeSumReducer merges per-part map[string]float64 aggregates.
const mergeSumReducer = "dframe_merge_sum"

// Register registers the dataframe chare type and reducers with a runtime.
func Register(rt *core.Runtime) {
	rt.Register(&Part{})
	rt.AddReducer(mergeSumReducer, func(contribs []any) any {
		out := map[string]float64{}
		for _, c := range contribs {
			for k, v := range c.(map[string]float64) {
				out[k] += v
			}
		}
		return out
	})
	ser.RegisterType(Schema{})
	ser.RegisterType(Col{})
	ser.RegisterType(map[string][]float64{})
	ser.RegisterType(map[string][]string{})
}

// Part is one horizontal partition of a dataframe.
type Part struct {
	core.Chare
	Schema  Schema
	Floats  map[string][]float64
	Strings map[string][]string
	Rows    int
}

func init() {
	core.Bind[Part](
		core.EM1((*Part).Count),
		core.EM5((*Part).FilterInto),
		core.EM3((*Part).GroupSum),
		core.EM2((*Part).HeadRows),
		core.EM1((*Part).Init),
		core.EM4((*Part).MapCol),
		core.EM2((*Part).MinMaxCol),
		core.EM3((*Part).RecvBatch),
		core.EM2((*Part).SumCol),
	)
}

// Init sets up the part's schema.
func (p *Part) Init(schema Schema) {
	p.Schema = schema
	p.Floats = map[string][]float64{}
	p.Strings = map[string][]string{}
	for _, c := range schema {
		if c.Kind == KFloat {
			p.Floats[c.Name] = nil
		} else {
			p.Strings[c.Name] = nil
		}
	}
}

// RecvBatch appends rows (column-major) and acknowledges through an empty
// reduction to done.
func (p *Part) RecvBatch(floats map[string][]float64, strings map[string][]string, done core.Future) {
	p.appendBatch(floats, strings)
	p.Contribute(nil, core.NopReducer, done)
}

func (p *Part) appendBatch(floats map[string][]float64, strs map[string][]string) {
	n := -1
	for name, col := range floats {
		if _, ok := p.Floats[name]; !ok {
			panic(fmt.Sprintf("dframe: unknown float column %q", name))
		}
		p.Floats[name] = append(p.Floats[name], col...)
		if n < 0 {
			n = len(col)
		} else if n != len(col) {
			panic("dframe: ragged batch")
		}
	}
	for name, col := range strs {
		if _, ok := p.Strings[name]; !ok {
			panic(fmt.Sprintf("dframe: unknown string column %q", name))
		}
		p.Strings[name] = append(p.Strings[name], col...)
		if n < 0 {
			n = len(col)
		} else if n != len(col) {
			panic("dframe: ragged batch")
		}
	}
	if n > 0 {
		p.Rows += n
	}
}

// Count contributes the part's row count.
func (p *Part) Count(done core.Future) {
	p.Contribute(p.Rows, core.SumReducer, done)
}

// SumCol contributes the sum of a float column.
func (p *Part) SumCol(name string, done core.Future) {
	col, ok := p.Floats[name]
	if !ok {
		panic(fmt.Sprintf("dframe: no float column %q", name))
	}
	var s float64
	for _, v := range col {
		s += v
	}
	p.Contribute(s, core.SumReducer, done)
}

// MinMaxCol contributes [min, max] of a float column (empty parts send the
// identity values).
func (p *Part) MinMaxCol(name string, done core.Future) {
	col := p.Floats[name]
	lo, hi := inf(), -inf()
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	p.Contribute([]float64{-lo, hi}, core.MaxReducer, done) // max(-x) = -min(x)
}

func inf() float64 { return math.Inf(1) }

// FilterInto sends the rows matching `col op value` to the same-indexed
// part of the destination frame.
func (p *Part) FilterInto(dst core.Proxy, col, op string, value float64, done core.Future) {
	src, ok := p.Floats[col]
	if !ok {
		panic(fmt.Sprintf("dframe: filter on unknown float column %q", col))
	}
	keep := make([]bool, p.Rows)
	for i, v := range src {
		switch op {
		case ">":
			keep[i] = v > value
		case ">=":
			keep[i] = v >= value
		case "<":
			keep[i] = v < value
		case "<=":
			keep[i] = v <= value
		case "==":
			keep[i] = v == value
		case "!=":
			keep[i] = v != value
		default:
			panic(fmt.Sprintf("dframe: unknown filter op %q", op))
		}
	}
	of := map[string][]float64{}
	os := map[string][]string{}
	for name, colv := range p.Floats {
		var out []float64
		for i, v := range colv {
			if keep[i] {
				out = append(out, v)
			}
		}
		of[name] = out
	}
	for name, colv := range p.Strings {
		var out []string
		for i, v := range colv {
			if keep[i] {
				out = append(out, v)
			}
		}
		os[name] = out
	}
	dst.At(p.ThisIndex[0]).Call("RecvBatch", of, os, done)
}

// MapCol applies a registered function to a float column, writing dstCol
// (which must exist in the schema).
func (p *Part) MapCol(srcCol, dstCol, fnName string, done core.Future) {
	fn := mapFn(fnName)
	src, ok := p.Floats[srcCol]
	if !ok {
		panic(fmt.Sprintf("dframe: map on unknown float column %q", srcCol))
	}
	if _, ok := p.Floats[dstCol]; !ok {
		panic(fmt.Sprintf("dframe: map destination column %q not in schema", dstCol))
	}
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = fn(v)
	}
	p.Floats[dstCol] = out
	p.Contribute(nil, core.NopReducer, done)
}

// GroupSum contributes this part's key -> sum(val) aggregate; the custom
// merge reducer combines parts.
func (p *Part) GroupSum(keyCol, valCol string, done core.Future) {
	keys, ok := p.Strings[keyCol]
	if !ok {
		panic(fmt.Sprintf("dframe: group key %q is not a string column", keyCol))
	}
	vals, ok := p.Floats[valCol]
	if !ok {
		panic(fmt.Sprintf("dframe: group value %q is not a float column", valCol))
	}
	agg := map[string]float64{}
	for i := range keys {
		agg[keys[i]] += vals[i]
	}
	p.Contribute(agg, core.Reducer{Name: mergeSumReducer}, done)
}

// HeadRows contributes up to n of this part's rows for an ordered gather.
func (p *Part) HeadRows(n int, done core.Future) {
	k := n
	if k > p.Rows {
		k = p.Rows
	}
	of := map[string][]float64{}
	os := map[string][]string{}
	for name, col := range p.Floats {
		of[name] = append([]float64(nil), col[:min(k, len(col))]...)
	}
	for name, col := range p.Strings {
		os[name] = append([]string(nil), col[:min(k, len(col))]...)
	}
	p.Contribute([]any{of, os}, core.GatherReducer, done)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---- driver-side API ----

// DataFrame is the driver handle.
type DataFrame struct {
	Proxy  core.Proxy
	Schema Schema
	Parts  int

	self *core.Chare
}

// New creates an empty distributed dataframe with the given schema and
// partition count. Call from a chare (e.g. the entry point).
func New(self *core.Chare, schema Schema, parts int) *DataFrame {
	if parts <= 0 {
		panic("dframe: parts must be positive")
	}
	proxy := self.NewArray(&Part{}, []int{parts}, schema)
	return &DataFrame{Proxy: proxy, Schema: schema, Parts: parts, self: self}
}

// Load distributes column data (all columns must have equal length) across
// the parts in contiguous blocks and waits for completion.
func (df *DataFrame) Load(floats map[string][]float64, strs map[string][]string) {
	n := -1
	for _, c := range floats {
		n = len(c)
		break
	}
	if n < 0 {
		for _, c := range strs {
			n = len(c)
			break
		}
	}
	if n < 0 {
		return
	}
	done := df.self.CreateFuture()
	for part := 0; part < df.Parts; part++ {
		lo := part * n / df.Parts
		hi := (part + 1) * n / df.Parts
		of := map[string][]float64{}
		os := map[string][]string{}
		for name, col := range floats {
			if len(col) != n {
				panic("dframe: ragged load")
			}
			of[name] = append([]float64(nil), col[lo:hi]...)
		}
		for name, col := range strs {
			if len(col) != n {
				panic("dframe: ragged load")
			}
			os[name] = append([]string(nil), col[lo:hi]...)
		}
		df.Proxy.At(part).Call("RecvBatch", of, os, done)
	}
	done.Get()
}

// Count returns the total row count.
func (df *DataFrame) Count() int {
	done := df.self.CreateFuture()
	df.Proxy.Call("Count", done)
	return asInt(done.Get())
}

func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	panic(fmt.Sprintf("dframe: unexpected count type %T", v))
}

// Sum returns the sum of a float column.
func (df *DataFrame) Sum(col string) float64 {
	done := df.self.CreateFuture()
	df.Proxy.Call("SumCol", col, done)
	return done.Get().(float64)
}

// Mean returns the mean of a float column (NaN-free: panics on empty).
func (df *DataFrame) Mean(col string) float64 {
	n := df.Count()
	if n == 0 {
		panic("dframe: Mean of empty dataframe")
	}
	return df.Sum(col) / float64(n)
}

// MinMax returns the minimum and maximum of a float column.
func (df *DataFrame) MinMax(col string) (float64, float64) {
	done := df.self.CreateFuture()
	df.Proxy.Call("MinMaxCol", col, done)
	v := done.Get().([]float64)
	return -v[0], v[1]
}

// Filter returns a new dataframe with the rows where `col op value` holds
// (op: > >= < <= == !=).
func (df *DataFrame) Filter(col, op string, value float64) *DataFrame {
	out := New(df.self, df.Schema, df.Parts)
	done := df.self.CreateFuture()
	df.Proxy.Call("FilterInto", out.Proxy, col, op, value, done)
	done.Get()
	return out
}

// Map applies a registered function to srcCol, storing into dstCol.
func (df *DataFrame) Map(srcCol, dstCol, fnName string) {
	done := df.self.CreateFuture()
	df.Proxy.Call("MapCol", srcCol, dstCol, fnName, done)
	done.Get()
}

// GroupBySum groups rows by a string column and sums a float column per key.
func (df *DataFrame) GroupBySum(keyCol, valCol string) map[string]float64 {
	done := df.self.CreateFuture()
	df.Proxy.Call("GroupSum", keyCol, valCol, done)
	return done.Get().(map[string]float64)
}

// Row is one materialized row.
type Row map[string]any

// Head returns the first n rows (in partition order).
func (df *DataFrame) Head(n int) []Row {
	done := df.self.CreateFuture()
	df.Proxy.Call("HeadRows", n, done)
	parts := done.Get().([]any) // gather, ordered by part index
	var rows []Row
	for _, raw := range parts {
		pair := raw.([]any)
		of := pair[0].(map[string][]float64)
		os := pair[1].(map[string][]string)
		k := 0
		for _, col := range of {
			if len(col) > k {
				k = len(col)
			}
		}
		for _, col := range os {
			if len(col) > k {
				k = len(col)
			}
		}
		for i := 0; i < k && len(rows) < n; i++ {
			r := Row{}
			for name, col := range of {
				if i < len(col) {
					r[name] = col[i]
				}
			}
			for name, col := range os {
				if i < len(col) {
					r[name] = col[i]
				}
			}
			rows = append(rows, r)
		}
		if len(rows) >= n {
			break
		}
	}
	return rows
}
