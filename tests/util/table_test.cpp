#include "symcan/util/table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

namespace symcan {
namespace {

std::string printed(const TextTable& t) {
  std::ostringstream os;
  t.print(os);
  return os.str();
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  // Columns pad to the widest cell plus two spaces; the last cell of a
  // row is never padded; the separator spans the full header width.
  EXPECT_EQ(printed(t),
            "name    value\n"
            "-------------\n"
            "a       1\n"
            "longer  22\n");
}

TEST(TextTable, HandlesRaggedRows) {
  TextTable t;
  t.row({"a"});
  t.row({"b", "c", "d"});
  t.row({});
  EXPECT_EQ(printed(t), "a\nb  c  d\n\n");
}

TEST(TextTable, RaggedRowsWidenPastTheHeader) {
  TextTable t;
  t.header({"h1", "h2"});
  t.row({"a", "b", "c"});
  t.row({"long"});
  EXPECT_EQ(printed(t),
            "h1    h2\n"
            "-----------\n"
            "a     b   c\n"
            "long\n");
}

TEST(TextTable, HeaderOnly) {
  TextTable t;
  t.header({"x", "yy"});
  EXPECT_EQ(printed(t), "x  yy\n-----\n");
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TextTable, EmptyTablePrintsNothing) {
  TextTable t;
  EXPECT_EQ(printed(t), "");
}

TEST(TextTable, HeaderResetsThePreviousHeader) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.header({"longname"});
  t.row({"1", "2"});
  EXPECT_EQ(printed(t),
            "longname\n"
            "-----------\n"
            "1         2\n");
}

TEST(TextTable, CanIdsKeepThreeUpperCaseDigits) {
  TextTable t;
  t.header({"id", "name"});
  for (const unsigned id : {0u, 0x7FFu, 0x1FFFFFFFu}) t.row({strprintf("0x%03X", id), "m"});
  EXPECT_EQ(printed(t),
            "id          name\n"
            "----------------\n"
            "0x000       m\n"
            "0x7FF       m\n"
            "0x1FFFFFFF  m\n");
}

TEST(TextTable, TypedCellsSpellLikeStringCells) {
  const std::vector<Duration> ds = {Duration::zero(), Duration::ns(999), Duration::us(1250),
                                    -Duration::ms(3), Duration::ns(1'234'565),
                                    Duration::infinite()};
  const std::vector<std::uint32_t> ids = {0, 0x7F, 0x7FF, 0x800, 0xABCDE, 0x1FFFFFFF};
  TextTable typed;
  TextTable strings;
  typed.header({"id", "d", "n", "v"});
  strings.header({"id", "d", "n", "v"});
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::int64_t n = static_cast<std::int64_t>(i) * -123456789;
    typed.cell_id(ids[i]).cell(ds[i]).cell_int(n).cell(i % 2 ? "ok" : "MISS").end_row();
    strings.row({strprintf("0x%03X", ids[i]), to_string(ds[i]), std::to_string(n),
                 i % 2 ? "ok" : "MISS"});
  }
  typed.cell("ragged").end_row();
  strings.row({"ragged"});
  EXPECT_EQ(printed(typed), printed(strings));
  EXPECT_EQ(typed.row_count(), strings.row_count());

  std::string out = "prefix\n";
  typed.render(out);
  EXPECT_EQ(out, "prefix\n" + printed(strings));
}

TEST(TextTable, CellIdMatchesTheFrozenSpelling) {
  TextTable t;
  t.header({"id", "name"});
  for (const std::uint32_t id : {0u, 0x7FFu, 0x1FFFFFFFu}) t.cell_id(id).cell("m").end_row();
  EXPECT_EQ(printed(t),
            "id          name\n"
            "----------------\n"
            "0x000       m\n"
            "0x7FF       m\n"
            "0x1FFFFFFF  m\n");
}

TEST(TextTable, RowCount) {
  TextTable t;
  EXPECT_EQ(t.row_count(), 0u);
  t.header({"h"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row({"x"});
  t.row({"y"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Strprintf, FormatsLikePrintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(AsciiBar, ScalesAndClamps) {
  EXPECT_EQ(ascii_bar(5, 10, 10), "#####");
  EXPECT_EQ(ascii_bar(10, 10, 4), "####");
  EXPECT_EQ(ascii_bar(20, 10, 4), "####");  // clamped
  EXPECT_EQ(ascii_bar(-1, 10, 4), "");
  EXPECT_EQ(ascii_bar(1, 0, 4), "");  // degenerate max
}

}  // namespace
}  // namespace symcan
