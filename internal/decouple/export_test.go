package decouple

// MixSrc exposes the package's mixed-region test program to the
// external decouple_test package.
const MixSrc = src
