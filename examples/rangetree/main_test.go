package main

// Example pins the whole of the example's output, so a change to the
// structures it calls cannot move it unnoticed.
func Example() {
	main()
	// Output:
	// built a 2-D range tree over 5000 points
	// stars with RA in [100°, 101°]: 14
	// rect [0,360]x[-90,90]: 5000 points — OK
	// rect [120,130]x[-10,10]: 12 points — OK
	// rect [359,360]x[80,90]: 0 points — OK
	// leftmost star: RA=0.02  rightmost: RA=359.99 (leaves list is x-sorted)
}
