package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// readBasketReference is ReadBasket as it was before it split lines in
// place: a string per line, strings.Fields, an items slice and a
// transaction of its own per line, canonicalised by the sort.Slice
// NewTransaction. It is the oracle the byte parser must match.
func readBasketReference(r io.Reader, opts BasketOptions) (*Dataset, error) {
	v := NewVocabulary()
	d := &Dataset{Vocab: v}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (opts.Comment != 0 && text[0] == opts.Comment) {
			continue
		}
		fields := strings.Fields(text)
		if opts.FirstTokenIsLabel {
			d.Labels = append(d.Labels, fields[0])
			fields = fields[1:]
		}
		if opts.FirstTokenIsName {
			if len(fields) == 0 {
				return nil, fmt.Errorf("dataset: basket line %d: missing name token", line)
			}
			d.Names = append(d.Names, fields[0])
			fields = fields[1:]
		}
		items := make([]Item, len(fields))
		for i, f := range fields {
			items[i] = v.Intern(f)
		}
		d.Trans = append(d.Trans, newTransactionReference(items...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading basket file: %w", err)
	}
	return d, nil
}

var errFuzzRead = errors.New("fuzz: read failed")

// fuzzReader serves data through the reader pick selects: whole, one byte
// a read, half of each read, data with io.EOF, or failing after a share
// of the bytes that pick also sets.
func fuzzReader(data []byte, pick byte) io.Reader {
	r := bytes.NewReader(data)
	switch pick % 5 {
	case 0:
		return r
	case 1:
		return iotest.OneByteReader(r)
	case 2:
		return iotest.HalfReader(r)
	case 3:
		return iotest.DataErrReader(r)
	default:
		k := len(data) * int(pick/5) / 51
		return io.MultiReader(io.LimitReader(r, int64(k)), iotest.ErrReader(errFuzzRead))
	}
}

// sameBasketParse fails t unless ReadBasket and readBasketReference agree:
// the same error text, or reflect.DeepEqual transactions, labels, names
// and vocabulary.
func sameBasketParse(t *testing.T, got *Dataset, gotErr error, want *Dataset, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadBasket error %v, reference error %v", gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Vocab.Names(), want.Vocab.Names()) {
		t.Fatalf("vocabulary %q, reference %q", got.Vocab.Names(), want.Vocab.Names())
	}
	if !reflect.DeepEqual(got.Trans, want.Trans) {
		t.Fatalf("transactions %#v, reference %#v", got.Trans, want.Trans)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("labels %q, reference %q", got.Labels, want.Labels)
	}
	if !reflect.DeepEqual(got.Names, want.Names) {
		t.Fatalf("names %q, reference %q", got.Names, want.Names)
	}
}

// FuzzReadBasketMatchesReference holds ReadBasket to readBasketReference
// on arbitrary bytes, options and readers.
func FuzzReadBasketMatchesReference(f *testing.F) {
	type seed struct {
		in          string
		label, name bool
		comment     byte
	}
	seeds := []seed{
		{"milk bread eggs\nbeer chips\n", false, false, 0},
		{"c1 t1 milk bread\nc2 t2 beer\n", true, true, '#'},
		{"# comment\n\n  \nitem\n", false, false, '#'},
		// U+0085, U+00A0, U+2028 and U+3000 between and around tokens.
		{"\u0085a\u0085b\u0085\n\u00a0a\u00a0b\u00a0\n\u2028a\u2028b\u2028\n\u3000a\u3000b\u3000\n", false, false, 0},
		{"L N a b\u3000c\u0085\n\u00a0L2\u2028N2 d\n", true, true, 0},
		// Lone 0x85 and 0xff bytes, which are not spaces.
		{"a\x85b \x85 c\xff\n\xff\x85\n", false, false, 0},
		{"\x85 x y\nz\n", true, false, 0x85},
		// CRLF endings and the other ASCII spaces.
		{"a b\r\nc\td\r\n\te\vf\fg\r\n\r\n", false, false, 0},
		{"l1\tn1\vx\fy\r\nl2 n2 z\r", true, true, 0},
		// Duplicate items, label-only lines and a missing name token.
		{"a b a c b a\nb b b\n", false, false, 0},
		{"lab\nlab x x\nother\n", true, false, 0},
		{"lab name a\nlab\n", true, true, 0},
		{"onlyname\n\n", false, true, 0},
		// A comment byte ≥ 0x80 matches the first byte after the spaces.
		{"\u00a9 skipped\n\u00a0\u00a9 skipped too\n\u00a0x kept\n", false, false, 0xc2},
		// No newline at the end.
		{"a b\nc d", true, false, 0},
	}
	// Cycle the four readers that deliver every byte; then fail two
	// reads about halfway through (pick 129: k = 25/51 of the bytes).
	for i, s := range seeds {
		f.Add([]byte(s.in), s.label, s.name, s.comment, byte(i%4))
	}
	f.Add([]byte("a b\nc d\ne f\ng h\n"), false, false, byte(0), byte(129))
	f.Add([]byte("l1 n1 a\nl2 n2 b\nl3 n3 c\n"), true, true, byte(0), byte(129))
	f.Fuzz(func(t *testing.T, data []byte, label, name bool, comment, pick byte) {
		opts := BasketOptions{FirstTokenIsLabel: label, FirstTokenIsName: name, Comment: comment}
		got, gotErr := ReadBasket(fuzzReader(data, pick), opts)
		want, wantErr := readBasketReference(fuzzReader(data, pick), opts)
		sameBasketParse(t, got, gotErr, want, wantErr)
	})
}

// TestReadBasketLineLimit pins the scanner's 16 MiB line cap on both
// parsers: a line one byte short of it parses, with or without its
// newline, and a line of 16 MiB fails with bufio.ErrTooLong.
func TestReadBasketLineLimit(t *testing.T) {
	const limit = 16 * 1024 * 1024
	for _, n := range []int{limit - 1, limit} {
		for _, newline := range []bool{false, true} {
			// Tokens of 1023 bytes keep the vocabulary and the field
			// slices small; the line ends in the token "end".
			in := bytes.Repeat([]byte(strings.Repeat("x", 1023)+" "), n/1024+1)[:n]
			copy(in[n-4:], " end")
			if newline {
				in = append(in, '\n')
			}
			got, gotErr := ReadBasket(bytes.NewReader(in), BasketOptions{})
			want, wantErr := readBasketReference(bytes.NewReader(in), BasketOptions{})
			sameBasketParse(t, got, gotErr, want, wantErr)
			if n < limit {
				if _, ok := got.Vocab.Lookup("end"); gotErr != nil || got.Len() != 1 || !ok {
					t.Fatalf("%d-byte line (newline %v): err %v, dataset %v", n, newline, gotErr, got)
				}
			} else if !errors.Is(gotErr, bufio.ErrTooLong) || !errors.Is(wantErr, bufio.ErrTooLong) {
				t.Fatalf("%d-byte line (newline %v): errors %v and %v, want bufio.ErrTooLong", n, newline, gotErr, wantErr)
			}
		}
	}
}
