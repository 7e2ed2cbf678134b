package main

// Example pins the quickstart's report, the 32K-entry table's
// occupancy line included.
func Example() {
	main()
	// Output:
	// compiled figure1.c: 84 instructions, 260 bytes of data
	//
	// program exited with 10
	//
	// dynamic memory references:   4148
	//   manifest in addressing:    288 (6.9%)
	//   resolved by the ARPT:      3860
	// classification accuracy:     99.81%
	// ARPT entries in use:         38 of 32768 (4096 bytes)
}
