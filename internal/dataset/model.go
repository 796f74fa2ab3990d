// Package dataset defines the data model shared by every other package in
// this module: interned categorical items, transactions (sets of items),
// categorical records, and the Dataset container that binds transactions to
// optional ground-truth labels and display names.
//
// ROCK treats all categorical inputs uniformly as market-basket
// transactions. A categorical record (a tuple of attribute values) is
// encoded as the transaction of its "attribute=value" pairs, with missing
// values contributing no items, exactly as in the paper.
package dataset

import (
	"errors"
	"fmt"
	"sort"
)

// Item is an interned categorical token: an item of a market-basket
// transaction, or an "attribute=value" pair of a categorical record.
// Items are allocated densely from 0 by a Vocabulary.
type Item int32

// Transaction is a set of items stored sorted ascending without
// duplicates. The zero value is the empty transaction.
type Transaction []Item

// NewTransaction builds a canonical (sorted, deduplicated) transaction
// from the given items. The input slice is not modified.
func NewTransaction(items ...Item) Transaction {
	t := make(Transaction, len(items))
	copy(t, items)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	// Deduplicate in place.
	out := t[:0]
	for i, it := range t {
		if i == 0 || it != t[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// Len reports the number of items in the transaction.
func (t Transaction) Len() int { return len(t) }

// Contains reports whether the transaction contains item it.
func (t Transaction) Contains(it Item) bool {
	i := sort.Search(len(t), func(i int) bool { return t[i] >= it })
	return i < len(t) && t[i] == it
}

// Equal reports whether two transactions contain the same items.
func (t Transaction) Equal(u Transaction) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the transaction.
func (t Transaction) Clone() Transaction {
	u := make(Transaction, len(t))
	copy(u, t)
	return u
}

// IntersectSize returns |t ∩ u| using a linear merge of the two sorted
// item slices.
func (t Transaction) IntersectSize(u Transaction) int {
	i, j, n := 0, 0, 0
	for i < len(t) && j < len(u) {
		switch {
		case t[i] < u[j]:
			i++
		case t[i] > u[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionSize returns |t ∪ u|.
func (t Transaction) UnionSize(u Transaction) int {
	return len(t) + len(u) - t.IntersectSize(u)
}

// Valid reports whether the transaction is canonical: strictly ascending
// item ids. Package functions producing Transactions always return
// canonical values; Valid is exported for property tests and for
// validating externally-constructed values.
func (t Transaction) Valid() bool {
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return false
		}
	}
	return true
}

// Dataset is a collection of transactions with optional per-transaction
// ground-truth labels and display names, plus the vocabulary that interns
// the item tokens. Labels and Names are either empty or exactly
// parallel to Trans.
type Dataset struct {
	Vocab  *Vocabulary
	Trans  []Transaction
	Labels []string // optional ground-truth class per transaction
	Names  []string // optional display name per transaction
	Attrs  []string // optional attribute names when built from records
}

// Len reports the number of transactions in the dataset.
func (d *Dataset) Len() int { return len(d.Trans) }

// Validate checks internal consistency: parallel slice lengths and
// canonical transactions with in-vocabulary items.
func (d *Dataset) Validate() error {
	if d.Labels != nil && len(d.Labels) != len(d.Trans) {
		return fmt.Errorf("dataset: %d labels for %d transactions", len(d.Labels), len(d.Trans))
	}
	if d.Names != nil && len(d.Names) != len(d.Trans) {
		return fmt.Errorf("dataset: %d names for %d transactions", len(d.Names), len(d.Trans))
	}
	limit := Item(-1)
	if d.Vocab != nil {
		limit = Item(d.Vocab.Len())
	}
	if err := CheckTransactions(d.Trans, limit); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// Check returns nil when t is canonical (strictly ascending) and every
// item lies in [0, limit), and otherwise an error saying which rule t
// breaks. A negative limit leaves the range open above.
func (t Transaction) Check(limit Item) error {
	switch {
	case !t.Valid():
		return errors.New("items not strictly ascending")
	case len(t) == 0:
		return nil
	case t[0] < 0:
		return fmt.Errorf("negative item %d", t[0])
	case limit >= 0 && t[len(t)-1] >= limit:
		return fmt.Errorf("out-of-vocabulary item %d", t[len(t)-1])
	}
	return nil
}

// CheckTransactions applies Check to each transaction and names the first
// that fails. Dataset.Validate calls it with the vocabulary size; the
// clustering entry points call it with no limit, so a malformed input
// fails with an error before any phase indexes by item id.
func CheckTransactions(ts []Transaction, limit Item) error {
	for i, t := range ts {
		if err := t.Check(limit); err != nil {
			return fmt.Errorf("transaction %d: %w", i, err)
		}
	}
	return nil
}

// Subset returns a new dataset holding the transactions at the given
// indices (shallow copies; the vocabulary is shared). Labels and names are
// carried over when present.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{Vocab: d.Vocab, Attrs: d.Attrs}
	s.Trans = make([]Transaction, len(idx))
	if d.Labels != nil {
		s.Labels = make([]string, len(idx))
	}
	if d.Names != nil {
		s.Names = make([]string, len(idx))
	}
	for i, j := range idx {
		s.Trans[i] = d.Trans[j]
		if d.Labels != nil {
			s.Labels[i] = d.Labels[j]
		}
		if d.Names != nil {
			s.Names[i] = d.Names[j]
		}
	}
	return s
}

// ClassCounts tallies the ground-truth labels. It returns nil when the
// dataset carries no labels.
func (d *Dataset) ClassCounts() map[string]int {
	if d.Labels == nil {
		return nil
	}
	m := make(map[string]int)
	for _, l := range d.Labels {
		m[l]++
	}
	return m
}
