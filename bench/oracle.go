package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// The reference oracle: expected results computed with plain Go maps and
// loops over the generated tuples, never through the engine, and compared by
// a canonical row encoding.

// digest identifies a result set: the row count plus a hash over the
// canonical row encodings, position-dependent for ordered results and
// commutative for multisets.
type digest struct {
	n int
	h uint64
}

// canonRow appends the canonical encoding of one row: per value a type tag
// and a length-prefixed rendering (floats at 12 significant digits, so a
// reference computed in another summation order still matches).
func canonRow(buf []byte, t relation.Tuple) []byte {
	for _, v := range t {
		var s string
		switch v.Type() {
		case relation.TInt:
			s = strconv.FormatInt(v.AsInt(), 10)
		case relation.TFloat:
			s = strconv.FormatFloat(v.AsFloat(), 'g', 12, 64)
		case relation.TString:
			s = v.AsString()
		}
		buf = append(buf, byte(v.Type()))
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
	}
	return buf
}

// digestRows digests a result set as a sequence (ordered) or a multiset.
func digestRows(rows []relation.Tuple, ordered bool) digest {
	d := digest{n: len(rows)}
	var buf []byte
	for _, r := range rows {
		buf = canonRow(buf[:0], r)
		f := fnv.New64a()
		_, _ = f.Write(buf)
		rh := f.Sum64()
		if ordered {
			d.h = d.h*1099511628211 + rh
		} else {
			// Squaring-free mix before the commutative sum, so equal rows
			// in different multiplicities do not cancel.
			rh ^= rh >> 29
			d.h += rh * 0x9e3779b97f4a7c15
		}
	}
	return d
}

// checkRows compares a result with its reference digest.
func checkRows(what string, rows []relation.Tuple, ordered bool, want digest) error {
	if got := digestRows(rows, ordered); got != want {
		return fmt.Errorf("%s: result differs from reference: %d rows (hash %x), want %d rows (hash %x)",
			what, got.n, got.h, want.n, want.h)
	}
	return nil
}

// refJoinCount is the reference for
//
//	select p.ORF, count(*) from protein_sequences p, protein_interactions i
//	where i.ORF1 = p.ORF group by p.ORF order by p.ORF
//
// as an ordered sequence.
func refJoinCount(seqs, ints []relation.Tuple) digest {
	inP := make(map[string]int64, len(seqs))
	for _, p := range seqs {
		inP[p[0].AsString()]++
	}
	counts := make(map[string]int64)
	for _, i := range ints {
		if m := inP[i[0].AsString()]; m > 0 {
			counts[i[0].AsString()] += m
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]relation.Tuple, len(keys))
	for n, k := range keys {
		rows[n] = relation.Tuple{relation.String(k), relation.Int(counts[k])}
	}
	return digestRows(rows, true)
}

// refEntropy is the reference for paper query Q1: the Shannon entropy of
// every sequence, as a multiset.
func refEntropy(seqs []relation.Tuple) digest {
	rows := make([]relation.Tuple, len(seqs))
	for n, p := range seqs {
		s := p[1].AsString()
		var counts [256]int
		for i := 0; i < len(s); i++ {
			counts[s[i]]++
		}
		var h float64
		for _, c := range counts {
			if c > 0 {
				q := float64(c) / float64(len(s))
				h -= q * math.Log2(q)
			}
		}
		rows[n] = relation.Tuple{relation.Float(h)}
	}
	return digestRows(rows, false)
}

// col names one column of the two demo tables: table 'p'
// (protein_sequences: ORF, sequence) or 'i' (protein_interactions: ORF1,
// ORF2) and the ordinal within it.
type col struct {
	table byte
	ord   int
}

// colNames are the column names of the two demo tables by alias.
var colNames = map[byte][]string{'p': {"ORF", "sequence"}, 'i': {"ORF1", "ORF2"}}

func (c col) sql() string { return string(c.table) + "." + colNames[c.table][c.ord] }

// shape is one statement shape of the serving workloads: a projection over
// protein_sequences, or over its join with protein_interactions on
// i.ORF1 = p.ORF, filtered by one comparison of a column with a literal.
type shape struct {
	join bool
	proj []col
	pred col
	op   string
}

// sql renders the statement with the given literal.
func (s shape) sql(lit string) string {
	cols := make([]string, len(s.proj))
	for i, c := range s.proj {
		cols[i] = c.sql()
	}
	from, where := "protein_sequences p", ""
	if s.join {
		from += ", protein_interactions i"
		where = "i.ORF1 = p.ORF and "
	}
	return fmt.Sprintf("select %s from %s where %s%s %s '%s'",
		strings.Join(cols, ", "), from, where, s.pred.sql(), s.op, lit)
}

// eval is the reference evaluation of the shape with the given literal, as a
// multiset.
func (s shape) eval(seqs, ints []relation.Tuple, lit string) digest {
	var rows []relation.Tuple
	emit := func(p, i relation.Tuple) {
		pick := func(c col) relation.Value {
			if c.table == 'p' {
				return p[c.ord]
			}
			return i[c.ord]
		}
		cmp := strings.Compare(pick(s.pred).AsString(), lit)
		keep := false
		switch s.op {
		case "=":
			keep = cmp == 0
		case "<>":
			keep = cmp != 0
		case "<":
			keep = cmp < 0
		case ">=":
			keep = cmp >= 0
		}
		if !keep {
			return
		}
		out := make(relation.Tuple, len(s.proj))
		for n, c := range s.proj {
			out[n] = pick(c)
		}
		rows = append(rows, out)
	}
	if !s.join {
		for _, p := range seqs {
			emit(p, nil)
		}
		return digestRows(rows, false)
	}
	byORF := make(map[string][]relation.Tuple, len(seqs))
	for _, p := range seqs {
		byORF[p[0].AsString()] = append(byORF[p[0].AsString()], p)
	}
	for _, i := range ints {
		for _, p := range byORF[i[0].AsString()] {
			emit(p, i)
		}
	}
	return digestRows(rows, false)
}
