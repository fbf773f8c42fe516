package main

// Example pins the whole of the example's output, so a change to the
// structures it calls cannot move it unnoticed.
func Example() {
	main()
	// Output:
	// 3298991 stored as 3 list nodes (3 digits each): 3298991
	// 100! has 158 digits (53 nodes): 9332621544394415268169923885626670049071...
	// fib(500) = 1394232245616978801397243828704072839500... (105 digits)
	// (a+b)·a == a·a + b·a: true
	//
	// p(x) = 451x^31 + 10x^13 + 4
	// p'(x) = 13981x^30 + 130x^12
	// p(1) = 465
	//
	// scaled 64-term polynomial on 4 PEs; leading term now 640x^63
	// representation invariants hold after parallel traversal
}
