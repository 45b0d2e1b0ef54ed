// Package workload provides the benchmark programs driving every
// experiment. The paper instrumented "large Fith programs" whose traces
// are lost; these programs regenerate the same structural properties —
// late-bound message traffic with a hot working set of (selector, class)
// pairs, deep call chains, polymorphic containers and object churn — at
// the paper's trace lengths (its longest trace was about 20,000
// instructions; every program here exceeds that at its default size).
package workload

// Program is one benchmark: source text plus the entry send that runs it.
// The entry receiver is always a small integer (the problem size), and
// every program answers an integer checksum so harnesses can validate the
// run.
type Program struct {
	Name  string
	Src   string
	Size  int32  // receiver for the measured run
	Warm  int32  // receiver for the warmup run
	Entry string // selector of the entry method
	Check int32  // expected checksum at Size
}

// Suite returns the standard benchmark set.
func Suite() []Program {
	return []Program{Arith(), Recurse(), Points(), Sort(), Tree(), Dispatch()}
}

// Arith is a loop-heavy integer program: mostly primitive hits, the
// friendliest case for the ITLB.
func Arith() Program {
	return Program{
		Name: "arith",
		Src: `
extend SmallInt [
	method benchArith [
		| acc i |
		acc := 0. i := 1.
		[ i <= self ] whileTrue: [
			acc := acc + (i * i \\ 97) - (i / 3).
			(acc > 10000) ifTrue: [ acc := acc - 10000 ].
			i := i + 1 ].
		^acc
	]
]`,
		Size:  800,
		Warm:  100,
		Entry: "benchArith",
		Check: -68265,
	}
}

// Recurse exercises deep LIFO call chains: factorial, fibonacci and
// mutual recursion (even/odd), the context system's stress test.
func Recurse() Program {
	return Program{
		Name: "recurse",
		Src: `
extend SmallInt [
	method benchFact [
		self isZero ifTrue: [ ^1 ].
		^(self * (self - 1) benchFact) \\ 9973
	]
	method benchFib [
		self < 2 ifTrue: [ ^self ].
		^(self - 1) benchFib + (self - 2) benchFib
	]
	method benchEven [ self isZero ifTrue: [ ^1 ]. ^(self - 1) benchOdd ]
	method benchOdd [ self isZero ifTrue: [ ^0 ]. ^(self - 1) benchEven ]
	method benchRecurse [
		| acc |
		acc := 0.
		1 to: 6 do: [:k |
			acc := (acc + self benchFact + ((self \\ 24) + k) benchFib + self benchEven) \\ 100003 ].
		^acc
	]
]`,
		Size:  300,
		Warm:  40,
		Entry: "benchRecurse",
		Check: 65782,
	}
}

// Points allocates objects and dispatches arithmetic selectors on a user
// class — the late-binding traffic the paper motivates.
func Points() Program {
	return Program{
		Name: "points",
		Src: `
class Pt extends Object [
	| x y |
	method x [ ^x ]
	method y [ ^y ]
	method setX: ax y: ay [ x := ax. y := ay ]
	method + p [ | r | r := Pt new. r setX: x + p x y: y + p y. ^r ]
	method dot: p [ ^(x * p x) + (y * p y) ]
	method manhattan [ | ax ay | ax := x absval. ay := y absval. ^ax + ay ]
]
extend SmallInt [
	method absval [ self < 0 ifTrue: [ ^0 - self ]. ^self ]
	method benchPoints [
		| acc p q i |
		acc := 0. i := 1.
		[ i <= self ] whileTrue: [
			p := Pt new. p setX: i y: 0 - i.
			q := Pt new. q setX: i \\ 7 y: i \\ 11.
			acc := (acc + ((p + q) manhattan) + (p dot: q)) \\ 99991.
			i := i + 1 ].
		^acc
	]
]`,
		Size:  260,
		Warm:  40,
		Entry: "benchPoints",
		Check: 99721,
	}
}

// Sort is the paper's reusability poster child: one insertion sort that
// works on any elements answering <, here exercised with both integers
// and a user class ordered by a key field.
func Sort() Program {
	return Program{
		Name: "sort",
		Src: `
class Keyed extends Object [
	| k |
	method k [ ^k ]
	method setK: v [ k := v ]
	method < other [ ^k < other k ]
]
extend Array [
	method insertionSort: n [
		| i j v |
		i := 1.
		[ i < n ] whileTrue: [
			v := self at: i.
			j := i - 1.
			[ (0 <= j) and: [ v < (self at: j) ] ] whileTrue: [
				self at: j + 1 put: (self at: j).
				j := j - 1 ].
			self at: j + 1 put: v.
			i := i + 1 ].
		^self
	]
]
extend SmallInt [
	method benchSort [
		| a b x acc i |
		a := Array new: self.
		b := Array new: self.
		i := 0.
		[ i < self ] whileTrue: [
			a at: i put: (self - i) * 17 \\ 101.
			x := Keyed new. x setK: (i * 23 \\ 89).
			b at: i put: x.
			i := i + 1 ].
		a insertionSort: self.
		b insertionSort: self.
		acc := 0.
		i := 0.
		[ i < self ] whileTrue: [
			acc := acc + (a at: i) + ((b at: i) k) * 3 \\ 99991.
			i := i + 1 ].
		^acc
	]
]`,
		Size:  48,
		Warm:  12,
		Entry: "benchSort",
		Check: 79332,
	}
}

// Tree builds and searches an unbalanced binary search tree of objects:
// pointer chasing, polymorphic nil checks and allocation churn.
func Tree() Program {
	return Program{
		Name: "tree",
		Src: `
class Node extends Object [
	| key left right |
	method key [ ^key ]
	method setKey: k [ key := k. left := nil. right := nil ]
	method insert: k [
		k < key
			ifTrue: [
				left == nil
					ifTrue: [ left := Node new. left setKey: k ]
					ifFalse: [ left insert: k ] ]
			ifFalse: [
				right == nil
					ifTrue: [ right := Node new. right setKey: k ]
					ifFalse: [ right insert: k ] ]
	]
	method contains: k [
		k = key ifTrue: [ ^true ].
		k < key
			ifTrue: [ left == nil ifTrue: [ ^false ]. ^left contains: k ]
			ifFalse: [ right == nil ifTrue: [ ^false ]. ^right contains: k ]
	]
	method total [
		| t |
		t := key.
		left == nil ifFalse: [ t := t + left total ].
		right == nil ifFalse: [ t := t + right total ].
		^t
	]
]
extend SmallInt [
	method benchTree [
		| root i hits |
		root := Node new. root setKey: 50.
		i := 1.
		[ i <= self ] whileTrue: [
			root insert: (i * 37 \\ 101).
			i := i + 1 ].
		hits := 0.
		i := 1.
		[ i <= self ] whileTrue: [
			(root contains: i \\ 101) ifTrue: [ hits := hits + 1 ].
			i := i + 1 ].
		^(root total \\ 9973) + hits
	]
]`,
		Size:  110,
		Warm:  25,
		Entry: "benchTree",
		Check: 5663,
	}
}

// Dispatch maximises megamorphic message traffic: one selector answered by
// many classes, cycling receivers — the ITLB's hardest realistic case.
func Dispatch() Program {
	return Program{
		Name: "dispatch",
		Src: `
class ShapeA extends Object [ method area: s [ ^s * s ] ]
class ShapeB extends Object [ method area: s [ ^s * s / 2 ] ]
class ShapeC extends Object [ method area: s [ ^s * 3 ] ]
class ShapeD extends Object [ method area: s [ ^s + s ] ]
class ShapeE extends Object [ method area: s [ ^s * s * s \\ 97 ] ]
class ShapeF extends Object [ method area: s [ ^0 - s ] ]
class ShapeG extends Object [ method area: s [ ^s / 3 + s ] ]
class ShapeH extends Object [ method area: s [ ^s * 7 \\ 13 ] ]
extend SmallInt [
	method benchDispatch [
		| shapes acc i s |
		shapes := Array new: 8.
		shapes at: 0 put: ShapeA new. shapes at: 1 put: ShapeB new.
		shapes at: 2 put: ShapeC new. shapes at: 3 put: ShapeD new.
		shapes at: 4 put: ShapeE new. shapes at: 5 put: ShapeF new.
		shapes at: 6 put: ShapeG new. shapes at: 7 put: ShapeH new.
		acc := 0. i := 0.
		[ i < self ] whileTrue: [
			s := shapes at: i \\ 8.
			acc := (acc + (s area: i \\ 29)) \\ 99991.
			i := i + 1 ].
		^acc
	]
]`,
		Size:  700,
		Warm:  120,
		Entry: "benchDispatch",
		Check: 45255,
	}
}
