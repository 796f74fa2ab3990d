package dataset

// Vocabulary interns string tokens as dense Item ids. Ids are assigned in
// first-seen order starting from 0, which keeps downstream structures
// (inverted indexes, binary encodings) compact. The zero value is not
// usable; call NewVocabulary.
type Vocabulary struct {
	byName map[string]Item
	names  []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byName: make(map[string]Item)}
}

// Intern returns the id for name, allocating a fresh id on first use.
func (v *Vocabulary) Intern(name string) Item {
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := Item(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// internBytes is Intern for a name held in bytes: the lookup does not
// allocate, so only a name's first use makes its string.
func (v *Vocabulary) internBytes(name []byte) Item {
	if id, ok := v.byName[string(name)]; ok {
		return id
	}
	return v.Intern(string(name))
}

// Lookup returns the id for name without allocating.
func (v *Vocabulary) Lookup(name string) (Item, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the token for id. It panics if id was never allocated,
// mirroring slice indexing semantics.
func (v *Vocabulary) Name(id Item) string { return v.names[id] }

// Len reports the number of distinct tokens interned so far.
func (v *Vocabulary) Len() int { return len(v.names) }

// Names returns the interned tokens in id order. The returned slice is
// shared with the vocabulary and must not be modified.
func (v *Vocabulary) Names() []string { return v.names }
