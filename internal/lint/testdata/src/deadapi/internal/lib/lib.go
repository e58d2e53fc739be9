// Package lib is the deadapi fixture: what package app or lib's own
// non-test code names stays quiet; the rest is flagged.
package lib

import "fmt"

// Shape is the fixture interface Square implements.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side } // live: Square is a Shape

func (s Square) String() string { return fmt.Sprint(s.Side) } // live: a fmt.Stringer

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `Perimeter is referenced by no non-test file`

func Used() Shape { return Square{Side: 1} } // app calls it

func Dead() {} // want `Dead is referenced by no non-test file`

func TestOnly() {} // want `TestOnly is referenced by no non-test file`

func helper() {} // want `helper is referenced by no non-test file`

type orphan struct{} // want `orphan is referenced by no non-test file`

func (orphan) touch() {} // want `touch is referenced by no non-test file`

// Kind's constants are one enumeration: app names KindB only.
type Kind int

const (
	KindA Kind = iota
	KindB
)

//blast:allow deadapi -- fixture: the oracle lib_test.go checks against
func Oracle() {}
