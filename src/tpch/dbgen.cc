#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/str_util.h"
#include "tpch/dates.h"
#include "tpch/schema.h"

namespace eedc::tpch {

using storage::Table;
using storage::TablePtr;

namespace {

const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                             4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECI", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "MACHINERY", "HOUSEHOLD"};

std::size_t RowsFor(double per_sf, double sf) {
  return static_cast<std::size_t>(std::llround(per_sf * sf));
}

}  // namespace

std::size_t OrdersRowsFor(double scale_factor) {
  return RowsFor(kOrdersRowsPerSF, scale_factor);
}

std::size_t CustomerRowsFor(double scale_factor) {
  return RowsFor(kCustomerRowsPerSF, scale_factor);
}

Table GenerateRegion() {
  Table t(RegionSchema());
  for (std::int64_t i = 0; i < 5; ++i) {
    t.AppendRow({i, std::string(kRegions[i])});
  }
  return t;
}

Table GenerateNation() {
  Table t(NationSchema());
  for (std::int64_t i = 0; i < 25; ++i) {
    t.AppendRow({i, std::string(kNations[i]),
                 static_cast<std::int64_t>(kNationRegion[i])});
  }
  return t;
}

Table GenerateSupplier(const DbgenOptions& options) {
  const std::size_t n =
      std::max<std::size_t>(1, RowsFor(kSupplierRowsPerSF,
                                       options.scale_factor));
  Rng rng(options.seed ^ 0x50u);
  Table t(SupplierSchema());
  t.Reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    t.AppendRow({static_cast<std::int64_t>(i),
                 StrFormat("Supplier#%09zu", i), rng.UniformInt(0, 24)});
  }
  return t;
}

Table GenerateCustomer(const DbgenOptions& options) {
  const std::size_t n =
      std::max<std::size_t>(1, CustomerRowsFor(options.scale_factor));
  Rng rng(options.seed ^ 0xC0u);
  Table t(CustomerSchema());
  t.Reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    t.AppendRow({static_cast<std::int64_t>(i),
                 StrFormat("Customer#%09zu", i), rng.UniformInt(0, 24),
                 std::string(kSegments[rng.UniformInt(0, 4)])});
  }
  return t;
}

Table GeneratePart(const DbgenOptions& options) {
  const std::size_t n =
      std::max<std::size_t>(1, RowsFor(kPartRowsPerSF,
                                       options.scale_factor));
  Rng rng(options.seed ^ 0x9Au);
  Table t(PartSchema());
  t.Reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    t.AppendRow({static_cast<std::int64_t>(i), StrFormat("Part#%09zu", i),
                 rng.UniformDouble(900.0, 2100.0)});
  }
  return t;
}

Table GeneratePartSupp(const DbgenOptions& options) {
  const std::size_t parts =
      std::max<std::size_t>(1, RowsFor(kPartRowsPerSF,
                                       options.scale_factor));
  const std::size_t suppliers =
      std::max<std::size_t>(1, RowsFor(kSupplierRowsPerSF,
                                       options.scale_factor));
  Rng rng(options.seed ^ 0xB5u);
  Table t(PartSuppSchema());
  t.Reserve(parts * 4);
  for (std::size_t p = 1; p <= parts; ++p) {
    for (int s = 0; s < 4; ++s) {
      t.AppendRow({static_cast<std::int64_t>(p),
                   rng.UniformInt(1, static_cast<std::int64_t>(suppliers)),
                   rng.UniformInt(1, 9999),
                   rng.UniformDouble(1.0, 1000.0)});
    }
  }
  return t;
}

void GenerateOrdersAndLineitem(const DbgenOptions& options, Table* orders,
                               Table* lineitem) {
  const std::size_t num_orders =
      std::max<std::size_t>(1, OrdersRowsFor(options.scale_factor));
  const std::int64_t num_customers = static_cast<std::int64_t>(
      std::max<std::size_t>(1, CustomerRowsFor(options.scale_factor)));
  const std::int64_t num_parts = static_cast<std::int64_t>(
      std::max<std::size_t>(1, RowsFor(kPartRowsPerSF,
                                       options.scale_factor)));
  const std::int64_t num_suppliers = static_cast<std::int64_t>(
      std::max<std::size_t>(1, RowsFor(kSupplierRowsPerSF,
                                       options.scale_factor)));

  Rng rng(options.seed ^ 0x0Eu);
  *orders = Table(OrdersSchema());
  *lineitem = Table(LineitemSchema());
  // Up to 7 lines per order: the bound keeps lineitem's columns from ever
  // reallocating (untouched reserved pages cost no resident memory).
  orders->Reserve(num_orders);
  lineitem->Reserve(num_orders * 7);

  // Typed column appends, in schema order (tpch/schema.cc).
  storage::Column& o_orderkey = orders->mutable_column(0);
  storage::Column& o_custkey = orders->mutable_column(1);
  storage::Column& o_totalprice = orders->mutable_column(2);
  storage::Column& o_orderdate = orders->mutable_column(3);
  storage::Column& o_orderpriority = orders->mutable_column(4);
  storage::Column& o_shippriority = orders->mutable_column(5);
  storage::Column& l_orderkey = lineitem->mutable_column(0);
  storage::Column& l_partkey = lineitem->mutable_column(1);
  storage::Column& l_suppkey = lineitem->mutable_column(2);
  storage::Column& l_linenumber = lineitem->mutable_column(3);
  storage::Column& l_quantity = lineitem->mutable_column(4);
  storage::Column& l_extendedprice = lineitem->mutable_column(5);
  storage::Column& l_discount = lineitem->mutable_column(6);
  storage::Column& l_tax = lineitem->mutable_column(7);
  storage::Column& l_returnflag = lineitem->mutable_column(8);
  storage::Column& l_linestatus = lineitem->mutable_column(9);
  storage::Column& l_shipdate = lineitem->mutable_column(10);
  storage::Column& l_commitdate = lineitem->mutable_column(11);
  storage::Column& l_receiptdate = lineitem->mutable_column(12);
  storage::Column& l_shipmode = lineitem->mutable_column(13);

  const std::int64_t max_order_date = MaxOrderDate();
  const std::int64_t current_date = CurrentDate();

  for (std::size_t o = 1; o <= num_orders; ++o) {
    const std::int64_t orderkey = static_cast<std::int64_t>(o);
    const std::int64_t custkey = rng.UniformInt(1, num_customers);
    const std::int64_t orderdate = rng.UniformInt(0, max_order_date);
    const int lines = static_cast<int>(rng.UniformInt(1, 7));

    double total_price = 0.0;
    for (int ln = 1; ln <= lines; ++ln) {
      const double quantity = static_cast<double>(rng.UniformInt(1, 50));
      const double price_per_unit = rng.UniformDouble(90.0, 2100.0);
      const double extended = quantity * price_per_unit;
      const double discount = rng.UniformInt(0, 10) / 100.0;
      const double tax = rng.UniformInt(0, 8) / 100.0;
      const std::int64_t shipdate = orderdate + rng.UniformInt(1, 121);
      const std::int64_t commitdate = orderdate + rng.UniformInt(30, 90);
      const std::int64_t receiptdate = shipdate + rng.UniformInt(1, 30);
      // RNG order per line: the return-flag draw, then part, supplier and
      // ship mode.
      const char* returnflag = "N";
      if (receiptdate <= current_date) {
        returnflag = rng.Bernoulli(0.5) ? "R" : "A";
      }
      total_price += extended * (1.0 + tax) * (1.0 - discount);

      l_orderkey.AppendInt64(orderkey);
      l_partkey.AppendInt64(rng.UniformInt(1, num_parts));
      l_suppkey.AppendInt64(rng.UniformInt(1, num_suppliers));
      l_linenumber.AppendInt64(ln);
      l_quantity.AppendDouble(quantity);
      l_extendedprice.AppendDouble(extended);
      l_discount.AppendDouble(discount);
      l_tax.AppendDouble(tax);
      l_returnflag.AppendString(returnflag);
      l_linestatus.AppendString(shipdate > current_date ? "O" : "F");
      l_shipdate.AppendInt64(shipdate);
      l_commitdate.AppendInt64(commitdate);
      l_receiptdate.AppendInt64(receiptdate);
      l_shipmode.AppendString(kShipModes[rng.UniformInt(0, 6)]);
    }

    o_orderkey.AppendInt64(orderkey);
    o_custkey.AppendInt64(custkey);
    o_totalprice.AppendDouble(total_price);
    o_orderdate.AppendInt64(orderdate);
    o_orderpriority.AppendString(kPriorities[rng.UniformInt(0, 4)]);
    o_shippriority.AppendInt64(0);
  }
  orders->FinishBulkLoad();
  lineitem->FinishBulkLoad();
}

TpchDatabase GenerateDatabase(const DbgenOptions& options) {
  TpchDatabase db;
  db.region = std::make_shared<Table>(GenerateRegion());
  db.nation = std::make_shared<Table>(GenerateNation());
  db.supplier = std::make_shared<Table>(GenerateSupplier(options));
  db.customer = std::make_shared<Table>(GenerateCustomer(options));
  db.part = std::make_shared<Table>(GeneratePart(options));
  db.partsupp = std::make_shared<Table>(GeneratePartSupp(options));
  auto orders = std::make_shared<Table>(OrdersSchema());
  auto lineitem = std::make_shared<Table>(LineitemSchema());
  GenerateOrdersAndLineitem(options, orders.get(), lineitem.get());
  db.orders = orders;
  db.lineitem = lineitem;
  return db;
}

StatusOr<TablePtr> TpchDatabase::ByName(const std::string& name) const {
  if (name == "region") return region;
  if (name == "nation") return nation;
  if (name == "supplier") return supplier;
  if (name == "customer") return customer;
  if (name == "part") return part;
  if (name == "partsupp") return partsupp;
  if (name == "orders") return orders;
  if (name == "lineitem") return lineitem;
  return Status::NotFound(StrFormat("no TPC-H table named '%s'",
                                    name.c_str()));
}

std::vector<std::string> TpchDatabase::TableNames() const {
  return {"region",   "nation", "supplier", "customer",
          "part",     "partsupp", "orders", "lineitem"};
}

}  // namespace eedc::tpch
