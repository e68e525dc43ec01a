// Package deadlib exercises the deadcode pass; ../cmd is its only caller.
package deadlib

import "strconv"

func Unused() {} // want "func Unused"

type T struct{ n int }

func (t *T) OnlyTests() int          { return t.n } // want "method T.OnlyTests"
func (t *T) String() string          { return strconv.Itoa(t.n) }
func ForMain() *T                    { return &T{n: 1} }
func Recur(n int) int                { return Recur(n - 1) } // want "func Recur"
func Nth(i int) Op                   { return OpA + Op(i) }
func (orphan) touch()                {} // want "method orphan.touch"
func (s Square) Area() int           { return s.Side * s.Side }
func (s Square) Perimeter() int      { return 4 * s.Side } // want "method Square.Perimeter"
func Total(shapes []Shape) (sum int) { return shapes[0].Area() }

type orphan struct{} // want "type orphan"

type Shape interface{ Area() int }

type Square struct{ Side int }

type Op uint8

const (
	OpA Op = iota
	OpB
)

const limit = 3 // want "const limit"

var registry = map[string]int{} // want "var registry"

//lint:deadcode the suppression case
func Kept() {}
