// Package model defines the core data types of the BLAST reproduction:
// entity profiles, entity collections, datasets (clean-clean and dirty ER
// inputs) and ground-truth pair sets.
//
// Terminology follows the paper (Simonini et al., PVLDB 9(12), 2016):
// an entity profile is a tuple of a unique identifier and a set of
// name-value pairs; an entity collection is a set of profiles; two profiles
// match if they refer to the same real-world object.
package model

import (
	"fmt"
	"strings"
)

// Pair is a single name-value pair of an entity profile.
type Pair struct {
	Name  string
	Value string
}

// Profile is an entity profile: a unique identifier plus name-value pairs.
// The zero value is an empty profile.
type Profile struct {
	// ID is the external identifier of the profile (unique within its
	// collection). It is never interpreted by the algorithms.
	ID string
	// Pairs holds the name-value pairs describing the entity.
	Pairs []Pair
}

// Add appends a name-value pair to the profile. Empty values are kept;
// blocking-level transformations decide how to treat them.
func (p *Profile) Add(name, value string) {
	p.Pairs = append(p.Pairs, Pair{Name: name, Value: value})
}

// String renders the profile as "id{name=value, ...}". Intended for
// debugging and examples, not for serialization.
func (p *Profile) String() string {
	var b strings.Builder
	b.WriteString(p.ID)
	b.WriteByte('{')
	for i, pr := range p.Pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", pr.Name, pr.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Collection is an entity collection: an ordered set of entity profiles
// from a single data source. Order is significant only in that profile
// indexes (positions) are used as compact internal identifiers.
type Collection struct {
	// Name identifies the data source (e.g. "dblp").
	Name string
	// Profiles holds the entity profiles of the collection.
	Profiles []Profile
}

// NewCollection returns an empty collection with the given source name.
func NewCollection(name string) *Collection {
	return &Collection{Name: name}
}

// Append adds a profile to the collection and returns its index.
func (c *Collection) Append(p Profile) int {
	c.Profiles = append(c.Profiles, p)
	return len(c.Profiles) - 1
}

// Len returns the number of profiles in the collection.
func (c *Collection) Len() int { return len(c.Profiles) }

// NVP returns the total number of name-value pairs in the collection
// (the "nvp" column of Table 2 in the paper).
func (c *Collection) NVP() int {
	n := 0
	for i := range c.Profiles {
		n += len(c.Profiles[i].Pairs)
	}
	return n
}

// NumAttributes returns |A|, the number of distinct attribute names.
func (c *Collection) NumAttributes() int {
	names := make(map[string]bool)
	for i := range c.Profiles {
		for _, pr := range c.Profiles[i].Pairs {
			names[pr.Name] = true
		}
	}
	return len(names)
}
