// libFuzzer target for the columnar row-packing contract: any CSV the
// loader accepts must pack into a well-formed ColumnarBus, and a one-row
// pack of each message must solve bit-identically to its row of the
// whole-bus pack, recording solve included. Build with
// -DSYMCAN_FUZZ=ON; seed from tests/fuzz/corpus/columnar (the csv corpus
// works too).

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fuzz_entries.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  symcan::fuzz::check_columnar_pack(
      std::string_view{reinterpret_cast<const char*>(data), size});
  return 0;
}
