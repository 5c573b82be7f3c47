// Per-thread scratch vectors for step bodies.
//
// A step body runs once per awake vertex per round, on whichever engine
// worker claimed the vertex's chunk. When it gathers neighbor values
// (plan colors, parent colors, a taken-palette mask), a fresh vector per
// call is a malloc/free pair per vertex-round. thread_scratch<T>() hands
// each thread one vector per element type instead: emptied on every
// call, keeping its capacity, so once it has grown to the largest gather
// the step body touches no heap. The buffer is valid until the same
// thread asks for thread_scratch<T>() again, so a caller must not hold
// it across a call that gathers with the same T.
#pragma once

#include <vector>

namespace valocal {

template <class T>
std::vector<T>& thread_scratch() {
  thread_local std::vector<T> buffer;
  buffer.clear();
  return buffer;
}

}  // namespace valocal
