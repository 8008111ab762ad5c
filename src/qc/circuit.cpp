#include "qc/circuit.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace smq::qc {

namespace {

/** Whether @p qubits names some qubit twice. */
bool
hasDuplicate(const std::vector<Qubit> &qubits)
{
    // A gate has at most three operands: comparing pairs allocates
    // nothing, and every search evaluation appends hundreds of gates.
    // Only a barrier lists more, up to the whole register.
    constexpr std::size_t kPairwise = 8;
    if (qubits.size() <= kPairwise) {
        for (std::size_t i = 1; i < qubits.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                if (qubits[i] == qubits[j])
                    return true;
            }
        }
        return false;
    }
    std::vector<Qubit> sorted(qubits);
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

} // namespace

Circuit::Circuit(std::size_t num_qubits, std::size_t num_clbits,
                 std::string name)
    : numQubits_(num_qubits), numClbits_(num_clbits), name_(std::move(name))
{
}

void
Circuit::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw std::out_of_range("Circuit: qubit index out of range");
}

void
Circuit::append(Gate gate)
{
    if (gate.type != GateType::BARRIER) {
        if (gate.qubits.size() != gateArity(gate.type))
            throw std::invalid_argument("Circuit::append: wrong arity for " +
                                        gateName(gate.type));
        if (gate.params.size() != gateParamCount(gate.type))
            throw std::invalid_argument(
                "Circuit::append: wrong parameter count for " +
                gateName(gate.type));
    }
    // Barriers take any number of qubit operands (empty = full fence),
    // but the operands must still name distinct, in-range qubits.
    for (Qubit q : gate.qubits)
        checkQubit(q);
    if (hasDuplicate(gate.qubits))
        throw std::invalid_argument(
            "Circuit::append: duplicate qubit operand");
    if (gate.type != GateType::BARRIER) {
        if (gate.type == GateType::MEASURE) {
            if (gate.cbit < 0 ||
                static_cast<std::size_t>(gate.cbit) >= numClbits_) {
                throw std::out_of_range(
                    "Circuit::append: classical bit out of range");
            }
        }
    }
    gates_.push_back(std::move(gate));
}

Circuit &
Circuit::add1(GateType type, Qubit q, std::vector<double> params)
{
    append(Gate(type, {q}, std::move(params)));
    return *this;
}

Circuit &
Circuit::add2(GateType type, Qubit a, Qubit b, std::vector<double> params)
{
    append(Gate(type, {a, b}, std::move(params)));
    return *this;
}

Circuit &
Circuit::rx(double theta, Qubit q)
{
    return add1(GateType::RX, q, {theta});
}

Circuit &
Circuit::ry(double theta, Qubit q)
{
    return add1(GateType::RY, q, {theta});
}

Circuit &
Circuit::rz(double theta, Qubit q)
{
    return add1(GateType::RZ, q, {theta});
}

Circuit &
Circuit::p(double lambda, Qubit q)
{
    return add1(GateType::P, q, {lambda});
}

Circuit &
Circuit::u3(double theta, double phi, double lambda, Qubit q)
{
    return add1(GateType::U3, q, {theta, phi, lambda});
}

Circuit &
Circuit::cp(double lambda, Qubit c, Qubit t)
{
    return add2(GateType::CP, c, t, {lambda});
}

Circuit &
Circuit::rxx(double theta, Qubit a, Qubit b)
{
    return add2(GateType::RXX, a, b, {theta});
}

Circuit &
Circuit::ryy(double theta, Qubit a, Qubit b)
{
    return add2(GateType::RYY, a, b, {theta});
}

Circuit &
Circuit::rzz(double theta, Qubit a, Qubit b)
{
    return add2(GateType::RZZ, a, b, {theta});
}

Circuit &
Circuit::ccx(Qubit a, Qubit b, Qubit t)
{
    append(Gate(GateType::CCX, {a, b, t}));
    return *this;
}

Circuit &
Circuit::cswap(Qubit c, Qubit a, Qubit b)
{
    append(Gate(GateType::CSWAP, {c, a, b}));
    return *this;
}

Circuit &
Circuit::measure(Qubit q, std::size_t clbit)
{
    append(Gate(GateType::MEASURE, {q}, {},
                static_cast<std::int32_t>(clbit)));
    return *this;
}

Circuit &
Circuit::barrier()
{
    append(Gate(GateType::BARRIER, {}));
    return *this;
}

Circuit &
Circuit::barrier(std::vector<Qubit> qubits)
{
    append(Gate(GateType::BARRIER, std::move(qubits)));
    return *this;
}

Circuit &
Circuit::measureAll()
{
    if (numClbits_ < numQubits_)
        numClbits_ = numQubits_;
    for (Qubit q = 0; q < numQubits_; ++q)
        measure(q, q);
    return *this;
}

Circuit &
Circuit::compose(const Circuit &other)
{
    if (other.numQubits() > numQubits_ || other.numClbits() > numClbits_)
        throw std::invalid_argument("Circuit::compose: registers too small");
    for (const Gate &g : other.gates())
        append(g);
    return *this;
}

Circuit
Circuit::inverse() const
{
    Circuit inv(numQubits_, numClbits_, name_.empty() ? "" : name_ + "_inv");
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
        if (it->type == GateType::BARRIER) {
            inv.barrier(it->qubits);
            continue;
        }
        inv.append(inverseGate(*it));
    }
    return inv;
}

Circuit
Circuit::remapped(const std::vector<Qubit> &mapping,
                  std::size_t new_num_qubits) const
{
    if (mapping.size() != numQubits_)
        throw std::invalid_argument("Circuit::remapped: mapping size");
    if (new_num_qubits == 0)
        new_num_qubits = numQubits_;
    for (Qubit image : mapping) {
        if (image >= new_num_qubits)
            throw std::out_of_range("Circuit::remapped: image out of range");
    }
    Circuit out(new_num_qubits, numClbits_, name_);
    for (const Gate &g : gates_) {
        Gate mapped = g;
        for (Qubit &q : mapped.qubits)
            q = mapping[q];
        out.append(std::move(mapped));
    }
    return out;
}

std::size_t
Circuit::opCount() const
{
    return static_cast<std::size_t>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.type != GateType::BARRIER; }));
}

std::size_t
Circuit::multiQubitGateCount() const
{
    return static_cast<std::size_t>(std::count_if(
        gates_.begin(), gates_.end(), [](const Gate &g) {
            return g.isUnitary() && g.qubits.size() >= 2;
        }));
}

std::size_t
Circuit::measureCount() const
{
    return static_cast<std::size_t>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.type == GateType::MEASURE; }));
}

std::size_t
Circuit::resetCount() const
{
    return static_cast<std::size_t>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.type == GateType::RESET; }));
}

std::string
Circuit::toString() const
{
    std::ostringstream out;
    out << "Circuit \"" << name_ << "\" (" << numQubits_ << " qubits, "
        << numClbits_ << " clbits, " << gates_.size() << " instructions)\n";
    for (const Gate &g : gates_)
        out << "  " << g.toString() << "\n";
    return out.str();
}

} // namespace smq::qc
