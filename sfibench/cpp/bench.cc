#include "bench.h"

#include <fstream>
#include <sstream>

namespace sfibench {

void
Report::fail(uint64_t ops, const std::string& what)
{
    failed_ += ops;
    errors_.push_back(what);
}

bool
Expected::load(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hex;
        if (!(ls >> key >> hex) || hex.rfind("0x", 0) != 0) {
            *error = path + ":" + std::to_string(lineno) + ": malformed";
            return false;
        }
        values_[key] = std::stoull(hex, nullptr, 16);
    }
    return true;
}

bool
Expected::get(const std::string& key, uint64_t* out) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return false;
    *out = it->second;
    return true;
}

ZipfSampler::ZipfSampler(uint64_t n, double s) : cdf_(n)
{
    double sum = 0;
    for (uint64_t k = 0; k < n; k++) {
        sum += 1.0 / std::pow(double(k + 1), s);
        cdf_[k] = sum;
    }
    for (double& c : cdf_)
        c /= sum;
}

uint64_t
ZipfSampler::draw(sfi::Rng& rng) const
{
    double u = rng.nextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<uint64_t>(uint64_t(it - cdf_.begin()), cdf_.size() - 1);
}

double
ZipfSampler::probability(uint64_t k) const
{
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double
ZipfSampler::expectedDistinct(uint64_t draws) const
{
    double e = 0;
    for (uint64_t k = 0; k < cdf_.size(); k++)
        e += 1.0 - std::pow(1.0 - probability(k), double(draws));
    return e;
}

}  // namespace sfibench
