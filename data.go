package rock

import (
	"io"

	"github.com/rockclust/rock/internal/dataset"
)

// Data-model types, re-exported.
type (
	// Item is an interned categorical token.
	Item = dataset.Item
	// Transaction is a sorted, duplicate-free set of items.
	Transaction = dataset.Transaction
	// Dataset binds transactions to an item vocabulary and optional
	// ground-truth labels and display names.
	Dataset = dataset.Dataset
	// Vocabulary interns string tokens as dense item ids.
	Vocabulary = dataset.Vocabulary
	// Record is one categorical tuple (one value per attribute).
	Record = dataset.Record
	// EncodeOptions control record→transaction encoding.
	EncodeOptions = dataset.EncodeOptions
	// CSVOptions control ReadCSV.
	CSVOptions = dataset.CSVOptions
	// BasketOptions control ReadBasket.
	BasketOptions = dataset.BasketOptions
	// Histogram is the item-frequency profile of a group of transactions
	// — a compact cluster summary.
	Histogram = dataset.Histogram
	// ItemCount pairs an item with its frequency in a histogram.
	ItemCount = dataset.ItemCount
)

// BuildHistogram profiles the transactions at the given indices — e.g. a
// Result cluster's members — as an item-frequency histogram.
func BuildHistogram(ts []Transaction, members []int) *Histogram {
	return dataset.BuildHistogram(ts, members)
}

// Missing is the conventional marker for a missing attribute value.
const Missing = dataset.Missing

// NewTransaction builds a canonical transaction from items.
func NewTransaction(items ...Item) Transaction { return dataset.NewTransaction(items...) }

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return dataset.NewVocabulary() }

// EncodeRecords converts categorical records to transactions of
// "attribute=value" items, the paper's reduction of categorical data to
// the market-basket domain. Missing values contribute no items unless
// opts.MissingAsValue is set.
func EncodeRecords(attrs []string, records []Record, labels []string, opts EncodeOptions) *Dataset {
	return dataset.EncodeRecords(attrs, records, labels, opts)
}

// DecodeRecord reverses EncodeRecords for one transaction.
func DecodeRecord(d *Dataset, t Transaction) Record { return dataset.DecodeRecord(d, t) }

// DefaultCSVOptions returns the options used by the command-line tools.
func DefaultCSVOptions() CSVOptions { return dataset.DefaultCSVOptions() }

// ReadCSV parses categorical records from CSV into a Dataset.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) { return dataset.ReadCSV(r, opts) }

// WriteCSV writes a record-encoded dataset back to CSV.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// ReadBasket parses the market-basket text format: one transaction per
// line, whitespace-separated items. Transactions share blocks of items,
// each with its capacity clipped to its length, so an append to one
// copies it. A caller that keeps a few transactions of a large parse
// keeps their blocks alive; keeping their Clone lets the blocks go.
// Equal labels share one string.
func ReadBasket(r io.Reader, opts BasketOptions) (*Dataset, error) {
	return dataset.ReadBasket(r, opts)
}

// WriteBasket writes transactions in the basket text format.
func WriteBasket(w io.Writer, d *Dataset) error { return dataset.WriteBasket(w, d) }
