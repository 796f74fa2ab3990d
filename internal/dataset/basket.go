package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"unicode/utf8"
)

// BasketOptions control ReadBasket.
type BasketOptions struct {
	// FirstTokenIsLabel treats the first whitespace-separated token of
	// each line as the transaction's ground-truth label.
	FirstTokenIsLabel bool
	// FirstTokenIsName treats the first token (after the label, if both
	// are set) as the transaction's display name.
	FirstTokenIsName bool
	// Comment, when non-zero, skips lines starting with this byte.
	Comment byte
}

// Transaction blocks start at basketBlockMin items and double up to
// basketBlockMax, so a small file takes little memory and a large one few
// allocations.
const (
	basketBlockMin = 256
	basketBlockMax = 64 << 10
)

// ReadBasket parses the classic market-basket text format: one transaction
// per line, items separated by whitespace. Blank lines are skipped.
//
// Each line is split in the scanner's buffer, so only an item name or a
// label seen for the first time, and each line's name, become new
// strings; equal labels share one string. Transactions are cut from
// shared blocks of items with their capacity clipped to their length, so
// an append to one copies it rather than overwriting the next. A caller
// that keeps a few transactions of a large parse keeps their blocks
// alive; keep their Clone to let the blocks go.
func ReadBasket(r io.Reader, opts BasketOptions) (*Dataset, error) {
	v := NewVocabulary()
	d := &Dataset{Vocab: v}
	labels := make(map[string]string)
	var (
		fields [][]byte
		block  []Item
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields = splitFields(fields, sc.Bytes())
		// The first token's first byte is the line's first byte past
		// its leading spaces.
		if len(fields) == 0 || (opts.Comment != 0 && fields[0][0] == opts.Comment) {
			continue
		}
		toks := fields
		if opts.FirstTokenIsLabel {
			label, ok := labels[string(toks[0])]
			if !ok {
				label = string(toks[0])
				labels[label] = label
			}
			d.Labels = append(d.Labels, label)
			toks = toks[1:]
		}
		if opts.FirstTokenIsName {
			if len(toks) == 0 {
				return nil, fmt.Errorf("dataset: basket line %d: missing name token", line)
			}
			d.Names = append(d.Names, string(toks[0]))
			toks = toks[1:]
		}
		// The first line allocates a block even when it holds no
		// items, so an empty transaction is an empty slice, never nil.
		if block == nil || cap(block)-len(block) < len(toks) {
			block = make([]Item, 0, max(min(2*cap(block), basketBlockMax), basketBlockMin, len(toks)))
		}
		start := len(block)
		for _, tok := range toks {
			block = append(block, v.internBytes(tok))
		}
		slices.Sort(block[start:])
		t := slices.Compact(block[start:])
		block = block[:start+len(t)]
		d.Trans = append(d.Trans, t[:len(t):len(t)])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading basket file: %w", err)
	}
	return d, nil
}

// asciiSpace marks the six ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields returns line's whitespace-separated tokens, split exactly
// where strings.Fields splits, reusing toks's array. An ASCII line is
// split in one pass; a line holding any byte ≥ 0x80 goes through
// bytes.Fields, so Unicode spaces and invalid UTF-8 split as
// strings.Fields splits them. The tokens alias line.
func splitFields(toks [][]byte, line []byte) [][]byte {
	toks = toks[:0]
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return bytes.Fields(line)
		case asciiSpace[c]:
			if start >= 0 {
				toks = append(toks, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		toks = append(toks, line[start:])
	}
	return toks
}

// WriteBasket writes transactions in the market-basket text format read by
// ReadBasket, emitting label and name prefix tokens when the dataset
// carries them.
func WriteBasket(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for i, t := range d.Trans {
		first := true
		emit := func(tok string) {
			if !first {
				bw.WriteByte(' ')
			}
			bw.WriteString(tok)
			first = false
		}
		if d.Labels != nil {
			emit(d.Labels[i])
		}
		if d.Names != nil {
			emit(d.Names[i])
		}
		for _, it := range t {
			emit(d.Vocab.Name(it))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("dataset: writing basket line %d: %w", i, err)
		}
	}
	return bw.Flush()
}
