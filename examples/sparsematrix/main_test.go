package main

// Example pins the whole of the example's output, so a change to the
// structures it calls cannot move it unnoticed.
func Example() {
	main()
	// Output:
	// Poisson operator: 64x64 with 190 nonzeros (4.6% dense)
	// Jacobi converged after 23425 sweeps
	// residual ‖Ax-b‖ = 9.61e-12
	//
	// row-scaled matrix (rows scaled by 1,2,3,4 in parallel):
	//   [1 0 1 0 1 0]
	//   [0 2 0 2 0 2]
	//   [0 0 3 0 3 0]
	//   [0 0 0 4 0 4]
	//
	// A symmetric (A == Aᵀ): true
	// A² has 314 nonzeros (pentadiagonal)
}
